(* service-open: WR-Lock served to 8 clients under CC, in open loop.

   Every client has a schedule of due steps (Poisson arrivals, mean gap
   1,600 steps per client) and paces itself against the simulated clock;
   latency counts from each request's due step, so a stall is charged to
   every request it delays.  Runs use the engine's fast path ([`Fast],
   dropping sink), as the lock service does. *)

open Rme_sim
module Hist = Rme_check.Metrics.Hist

let clients = 8
let gap = 1_600
let requests = 2_000  (* per client and round: 16,000 passages offered *)
let cs_yields = 2
let latency_limit = 2_000
let ladder = [ 3_200; 1_600; 800; 400; 200 ]

let spec = Rme.Spec.find_exn "wr"

(* Inputs of one engine run, all drawn from the seed. *)
type inputs = { dues : int array array; sched_seed : int; warmup : int }

let arrivals rng ~gap ~requests =
  let t = ref (1 + Random.State.int rng gap) in
  Array.init requests (fun _ ->
      let u = Random.State.float rng 1.0 in
      t := !t + max 1 (int_of_float (-.float_of_int gap *. log (1.0 -. u)));
      !t)

let inputs ~seed ~tag ~gap ~requests =
  let rng = Random.State.make [| seed; tag; gap; requests |] in
  let dues = Array.init clients (fun _ -> arrivals rng ~gap ~requests) in
  { dues; sched_seed = Random.State.bits rng; warmup = requests / 10 }

(* What a run measured in simulated units; two runs of the same inputs
   must agree on all of it. *)
type sim = {
  offered : int;
  completed : int;
  steps : int;
  cs_max : int;
  stalled : bool;
  lat : int * int * int;  (** p50, p99, p999 *)
  lag_p99 : int;
  lag_growing : bool;
  rmr : Common.rmr;
  rmr_by_kind : (Api.kind * int) list;
  polls : int;
  measured : int;  (** requests past the warm-up *)
}

(* Per-run probes written by the client bodies. *)
type probe = { lat : Hist.t; lag : int array array; polls : int array; ticks : Report.ticks }

let probe inp ticks =
  {
    lat = Hist.create ();
    lag = Array.map (fun d -> Array.make (Array.length d) 0) inp.dues;
    polls = Array.make clients 0;
    ticks;
  }

(* The benchmark's pacing client.  A request whose due step is already
   past when the client reaches it starts at once, late by the difference
   (its start lag); otherwise the client polls the clock until it is due. *)
let body inp pb (lock : Harness.lock) ~pid =
  let dues = inp.dues.(pid) and lags = pb.lag.(pid) in
  for i = 0 to Array.length dues - 1 do
    let due = Array.unsafe_get dues i in
    let first = Api.step () in
    if first >= due then Array.unsafe_set lags i (first - due)
    else
      while Api.step () < due do
        pb.polls.(pid) <- pb.polls.(pid) + 1;
        Api.yield ()
      done;
    Api.note (Event.Seg Event.Req_begin);
    lock.Harness.acquire ~pid;
    Api.note (Event.Seg Event.Cs_begin);
    for _ = 1 to cs_yields do
      Api.yield ()
    done;
    Api.note (Event.Seg Event.Cs_end);
    lock.Harness.release ~pid;
    Api.note (Event.Seg Event.Req_done);
    Report.tick pb.ticks;
    if i >= inp.warmup then Hist.add pb.lat (Api.step () - due)
  done

let engine_run ?(mode = `Fast) ?(sink = Event.Sink.drop) ?on_op inp pb =
  let last = Array.fold_left (fun acc d -> max acc d.(Array.length d - 1)) 0 inp.dues in
  let offered = Array.fold_left (fun acc d -> acc + Array.length d) 0 inp.dues in
  Engine.run ~mode ~sink ?on_op
    ~max_steps:(last + (offered * 300) + 100_000)
    ~n:clients ~model:Memory.CC ~sched:(Sched.random ~seed:inp.sched_seed) ~crash:Crash.none
    ~setup:spec.Rme.Spec.make ~body:(body inp pb) ()

let summarize inp pb (res : Engine.result) =
  let offered = Array.fold_left (fun acc d -> acc + Array.length d) 0 inp.dues in
  let lag = Hist.create () in
  let quarter_means = ref (0, 0, 0, 0) in
  Array.iter
    (fun lags ->
      let n = Array.length lags in
      let q = max 1 ((n - inp.warmup) / 4) in
      let a, b, c, d = !quarter_means in
      let first = ref 0 and last = ref 0 in
      for i = inp.warmup to n - 1 do
        Hist.add lag lags.(i);
        if i < inp.warmup + q then first := !first + lags.(i);
        if i >= n - q then last := !last + lags.(i)
      done;
      quarter_means := (a + !first, b + q, c + !last, d + q))
    pb.lag;
  let f, fq, l, lq = !quarter_means in
  (* The backlog grows when the last quarter's requests start much later
     than the first quarter's. *)
  let lag_growing = float_of_int l /. float_of_int lq > (2.0 *. float_of_int f /. float_of_int fq) +. 50.0 in
  let ps = Common.passages () in
  Common.add_result ps res;
  let q p = Hist.percentile pb.lat p in
  {
    offered;
    completed = ps.Common.completed;
    steps = res.Engine.steps;
    cs_max = res.Engine.cs_max;
    stalled = res.Engine.deadlocked || res.Engine.timed_out || res.Engine.stall <> None;
    lat = (q 0.50, q 0.99, q 0.999);
    lag_p99 = Hist.percentile lag 0.99;
    lag_growing;
    rmr = Common.rmr ps;
    rmr_by_kind = res.Engine.rmr_by_kind;
    polls = Array.fold_left ( + ) 0 pb.polls;
    measured = Hist.count pb.lat;
  }

(* Units of a run that failed: all of them when mutual exclusion broke or
   the run stalled, else the passages left uncompleted. *)
let failed s = if s.cs_max > 1 || s.stalled then s.offered else s.offered - s.completed

let run_once ?mode ?sink ?on_op ?(ticks = Report.ticks ()) inp =
  let pb = probe inp ticks in
  Report.tick ticks;
  let res = engine_run ?mode ?sink ?on_op inp pb in
  Report.tick ticks;
  (summarize inp pb res, res)

let held_out seed = seed lxor 0x2545F491

(* Highest offered load of the ladder whose p99 latency stays within the
   limit without a growing backlog, in arrivals per 1,000 steps. *)
let capacity r ~seed =
  List.fold_left
    (fun best g ->
      let s, _ = run_once (inputs ~seed ~tag:3 ~gap:g ~requests:800) in
      Report.units r ~what:(Printf.sprintf "capacity ladder, gap %d" g) ~attempted:s.offered
        ~failed:(failed s);
      let _, p99, _ = s.lat in
      if failed s = 0 && p99 <= latency_limit && not s.lag_growing then
        Float.max best (float_of_int clients *. 1000.0 /. float_of_int g)
      else best)
    0.0 ladder

let units s = s.offered

let run ~seed ~seconds ~trace (r : Report.t) =
  (* Set-up: draw every input of the run from the seed, then one warm-up
     pass over a small sample. *)
  let setup =
    Common.setup (fun () ->
        let main = inputs ~seed ~tag:1 ~gap ~requests in
        ignore (run_once (inputs ~seed ~tag:2 ~gap ~requests:200));
        main)
  in
  let inp = setup.Common.value in
  (* Differential check: the fast path against the instrumented engine. *)
  let sample = inputs ~seed ~tag:4 ~gap ~requests:300 in
  let fast, _ = run_once ~mode:`Fast sample and full, _ = run_once ~mode:`Full sample in
  Report.units r ~what:"`Fast and `Full sample runs (must agree)" ~attempted:(2 * fast.offered)
    ~failed:(if fast = full then 2 * failed fast else 2 * fast.offered);
  let ho, _ = run_once (inputs ~seed:(held_out seed) ~tag:1 ~gap ~requests:1_000) in
  Report.units r ~what:"held-out seed run" ~attempted:ho.offered ~failed:(failed ho);
  let round ticks = fst (run_once ~ticks inp) in
  if not trace then begin
    let rs = Common.rounds r ~seconds ~setup ~units ~failed round in
    let s = (List.hd rs).Common.sim in
    Report.note r "each round: %d passages offered (%d measured past warm-up), %d steps" s.offered
      s.measured s.steps;
    Common.end_to_end r ~rounds:rs ~passages:s.completed ~ops:s.completed
      ~steps_per_passage:(float_of_int s.steps /. float_of_int s.completed)
      ~latency:s.lat ~rmr:s.rmr;
    None
  end
  else begin
    let plain, (spans, res) =
      Common.traced_pairs r ~seconds ~units ~failed ~untraced:round ~traced:(fun () ->
          let spans = Spans.create ~n:clients ~keep:20_000 in
          let s, res =
            run_once ~mode:`Auto ~sink:(Event.Sink.callback (Spans.on_event spans))
              ~on_op:(Spans.on_op spans) inp
          in
          (s, (spans, res)))
    in
    let s = (List.hd plain).Common.sim in
    Common.lock_layers r ~spans ~res ~plain ~passages:s.completed ~rmr:s.rmr ~polls:s.polls;
    Report.metric r "service.start_lag_p99_steps" "steps" (float_of_int s.lag_p99);
    Report.metric r "service.capacity_per_kstep" "1/kstep" (capacity r ~seed);
    Some (Spans.lines spans res)
  end
