(* Timing helpers, the ledger of attempts and failures, and the result line.

   Every workload fills one [t]: the units of work it attempted (offered
   passages, or explorer subject verdicts), how many of them failed a
   correctness check, and its metrics.  [print] writes a human-readable
   table and then, as the last line of standard output, the JSON result
   line. *)

(* Host seconds on the monotonic clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type gc = { minor : float; promoted : float; majors : int }

(* [timed f] runs [f] and returns its result, host seconds and
   allocation. *)
let timed f =
  let s0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let m1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  ( r,
    dt,
    {
      minor = m1 -. m0;
      promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      majors = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

(* Tick timelines.  A round ticks at points that recur in every round in
   the same order (each request completed, each explorer run checked), so
   the rounds can be compared interval by interval: [fastest] sums, over
   the intervals, the shortest time any round took for it.

   That is the benchmark's host-time estimator.  On a shared two-vCPU
   host the speed of one thread is bimodal: probes of 50 ms alternate
   between two speeds about 1.7x apart as other tenants come and go, and
   the share of slow time in a 15 s window varies enough to move a median
   or mean by 15-20% from one window to the next.  The fastest time per
   short interval is the program's uncontended speed, and it repeats. *)
type ticks = { mutable n : int; mutable at : int array  (** monotonic ns *) }

let ticks () = { n = 0; at = Array.make 1024 0 }

let tick t =
  if t.n = Array.length t.at then begin
    let a = Array.make (2 * t.n) 0 in
    Array.blit t.at 0 a 0 t.n;
    t.at <- a
  end;
  Array.unsafe_set t.at t.n (Int64.to_int (Monotonic_clock.now ()));
  t.n <- t.n + 1

(* Seconds from the first tick to the last. *)
let span t = if t.n < 2 then 0.0 else float_of_int (t.at.(t.n - 1) - t.at.(0)) *. 1e-9

let fastest = function
  | [] -> invalid_arg "Report.fastest: no rounds"
  | first :: _ as all ->
      if List.exists (fun t -> t.n <> first.n) all then
        (* The rounds did not tick alike (a determinism failure, reported
           as such); fall back to the fastest whole round. *)
        List.fold_left (fun acc t -> Float.min acc (span t)) infinity all
      else begin
        let total = ref 0 in
        for i = 0 to first.n - 2 do
          total :=
            !total + List.fold_left (fun acc t -> min acc (t.at.(i + 1) - t.at.(i))) max_int all
        done;
        float_of_int !total *. 1e-9
      end

let median = function
  | [] -> invalid_arg "Report.median: no samples"
  | xs ->
      let a = Array.of_list (List.sort compare xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Calls [f] at least [min] times, and again while the next call is
   expected to end within [seconds] of the first one's start (the expected
   length of a call is the longest seen so far).  Returns the results in
   call order. *)
let repeat ~seconds ~min f =
  let t0 = now () in
  let rec go acc k longest =
    let elapsed = now () -. t0 in
    if k >= min && elapsed +. longest > seconds then List.rev acc
    else begin
      let t = now () in
      let r = f k in
      go (r :: acc) (k + 1) (Float.max longest (now () -. t))
    end
  in
  go [] 0 0.0

type t = {
  workload : string;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first *)
  mutable metrics : (string * string * float) list;  (** newest first *)
  mutable notes : string list;  (** newest first *)
}

let create workload =
  { workload; attempted = 0; failed = 0; failures = []; metrics = []; notes = [] }

(* [units t ~what ~attempted ~failed] records [attempted] units of work of
   which [failed] did not pass their checks. *)
let units t ~what ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed;
  if failed > 0 then
    t.failures <- Printf.sprintf "%s: %d of %d failed" what failed attempted :: t.failures

(* [check t ~what ~attempted ok] records [attempted] units that all pass
   or all fail one check. *)
let check t ~what ~attempted ok = units t ~what ~attempted ~failed:(if ok then 0 else attempted)

let metric t name unit v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "metric %s is not a finite number" name);
  t.metrics <- (name, unit, v) :: t.metrics

let note t fmt = Printf.ksprintf (fun s -> t.notes <- s :: t.notes) fmt

let correct t = t.failed = 0 && t.attempted > 0

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Prints the notes, then [expected] — (name, unit) pairs in order —
   and the result line.  A metric the workload did not set is printed as
   0 when [missing_is_zero] (a per-layer metric of a layer the workload
   does not exercise); otherwise it is a failure of the benchmark itself. *)
let print t ~expected ~missing_is_zero =
  let found name = List.find_opt (fun (n, _, _) -> n = name) t.metrics in
  let rows =
    List.filter_map
      (fun (name, unit) ->
        match found name with
        | Some (_, u, v) when u = unit -> Some (name, unit, v, "")
        | Some (_, u, _) ->
            units t ~what:(Printf.sprintf "metric %s has unit %s, expected %s" name u unit)
              ~attempted:0 ~failed:1;
            None
        | None when missing_is_zero -> Some (name, unit, 0.0, "  (layer not exercised)")
        | None ->
            units t ~what:(Printf.sprintf "metric %s was not measured" name) ~attempted:0 ~failed:1;
            None)
      expected
  in
  List.iter (fun s -> Printf.printf "%s: %s\n" t.workload s) (List.rev t.notes);
  List.iter
    (fun (name, unit, v, tag) ->
      Printf.printf "%s: %-32s %22s %s%s\n" t.workload name (json_number v) unit tag)
    rows;
  List.iter (fun s -> Printf.printf "%s: FAILED %s\n" t.workload s) (List.rev t.failures);
  let metrics =
    List.map
      (fun (name, unit, v, _) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      rows
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct t) t.attempted t.failed (String.concat ", " metrics)
