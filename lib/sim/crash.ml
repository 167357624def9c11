type point = Before | After

type decision = No_crash | Crash of point

type op_info = {
  mutable pid : int;
  mutable step : int;
  mutable op_index : int;
  mutable kind : Api.kind;
  mutable op : Api.op;
  mutable unsafe_wrt : int list;
}

(* How a plan's firing decisions relate to the schedule, for the explorer's
   partial-order reduction.  [Robust victims]: every decision is a function
   of the observed process's own instruction history alone, so swapping
   independent steps of other processes cannot move a crash; only the listed
   pids can ever be struck.  [Sensitive]: decisions read the global step
   counter, a shared RNG consumed in cross-process op order, or shared span
   state — reordering can change where the plan fires, so POR must stay
   off. *)
type por_class = Robust of int list | Sensitive

let cell info = Api.cell_of_op info.op

(* Allocates its [Some]; the plans below match [info.op] instead. *)
let note info = match info.op with Api.Note n -> Some n | _ -> None

let cell_name info = Option.map Cell.name (cell info)

type t = {
  label : string;
  on_op : op_info -> decision;
  async : step:int -> int list;
  system : step:int -> bool;
  por : por_class;
}

let label t = t.label

let on_op t info = t.on_op info

let async t ~step = t.async ~step

let system t ~step = t.system ~step

let por_class t = t.por

let no_async ~step:_ = []

let no_system ~step:_ = false

let none =
  {
    label = "none";
    on_op = (fun _ -> No_crash);
    async = no_async;
    system = no_system;
    por = Robust [];
  }

let at_op ~pid ~nth point =
  let fired = ref false in
  {
    label = Printf.sprintf "at-op(p%d,%d)" pid nth;
    on_op =
      (fun info ->
        if (not !fired) && info.pid = pid && info.op_index = nth then begin
          fired := true;
          Crash point
        end
        else No_crash);
    async = no_async;
    system = no_system;
    por = Robust [ pid ];
  }

(* Crash [pid] at the [occurrence]-th instruction satisfying [match_]. *)
let on_match ~label ~pid ~occurrence ~point match_ =
  let seen = ref 0 in
  let fired = ref false in
  {
    label;
    on_op =
      (fun info ->
        if (not !fired) && info.pid = pid && match_ info then begin
          let k = !seen in
          incr seen;
          if k = occurrence then begin
            fired := true;
            Crash point
          end
          else No_crash
        end
        else No_crash);
    async = no_async;
    system = no_system;
    por = Robust [ pid ];
  }

let on_kind ~pid ~kind ~occurrence point =
  on_match
    ~label:(Fmt.str "on-kind(p%d,%a,%d)" pid Api.pp_kind kind occurrence)
    ~pid ~occurrence ~point
    (fun info -> info.kind = kind)

let on_cell ~pid ~cell ~occurrence point =
  on_match
    ~label:(Printf.sprintf "on-cell(p%d,%s,%d)" pid cell occurrence)
    ~pid ~occurrence ~point
    (fun info ->
      match Api.cell_of_op info.op with Some c -> String.equal (Cell.name c) cell | None -> false)

let on_custom_note ~pid ~tag ~occurrence point =
  on_match
    ~label:(Printf.sprintf "on-note(p%d,%s,%d)" pid tag occurrence)
    ~pid ~occurrence ~point
    (fun info -> match info.op with Api.Note (Event.Custom s) -> s = tag | _ -> false)

let random ~seed ~rate ~max_crashes ?pids () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Crash.random: rate must be in [0, 1]";
  let rng = Random.State.make [| seed; 0x5ca1ab1e |] in
  let budget = ref max_crashes in
  let eligible =
    match pids with None -> fun _ -> true | Some ps -> fun pid -> List.mem pid ps
  in
  {
    label = Printf.sprintf "random(rate=%g,max=%d)" rate max_crashes;
    on_op =
      (fun info ->
        if !budget > 0 && eligible info.pid && Random.State.float rng 1.0 < rate then begin
          decr budget;
          Crash (if Random.State.bool rng then Before else After)
        end
        else No_crash);
    async = no_async;
    system = no_system;
    (* With a single eligible pid the RNG is consumed only on that pid's
       ops, in its own program order — schedule-robust.  With several, the
       draw order depends on the interleaving. *)
    por = (match pids with Some [ p ] -> Robust [ p ] | _ -> Sensitive);
  }

let fas_gap ~seed ~rate ~max_crashes ?(cell_suffix = "filter.tail") () =
  let rng = Random.State.make [| seed; 0xdeadfa5 |] in
  let budget = ref max_crashes in
  {
    label = Printf.sprintf "fas-gap(rate=%g,max=%d)" rate max_crashes;
    on_op =
      (fun info ->
        (* Only FAS targets are rendered: the kind test comes first. *)
        match cell info with
        | Some cell
          when !budget > 0 && info.kind = Api.Fas
               && String.ends_with ~suffix:cell_suffix (Cell.name cell)
               && Random.State.float rng 1.0 < rate ->
            decr budget;
            Crash After
        | _ -> No_crash);
    async = no_async;
    system = no_system;
    por = Sensitive;
  }

let async_at specs =
  let pending = ref specs in
  {
    label = "async-at";
    on_op = (fun _ -> No_crash);
    async =
      (fun ~step ->
        let due, rest = List.partition (fun (s, _) -> step >= s) !pending in
        pending := rest;
        List.map snd due);
    system = no_system;
    por = Sensitive;
  }

let batch ~step ~pids = { (async_at (List.map (fun p -> (step, p)) pids)) with label = "batch" }

let every_nth_passage ~pid ~period ~max_crashes =
  if period <= 0 then invalid_arg "Crash.every_nth_passage: period must be positive";
  let passages = ref 0 in
  let budget = ref max_crashes in
  {
    label = Printf.sprintf "every-nth-passage(p%d,%d)" pid period;
    on_op =
      (fun info ->
        match info.op with
        | Api.Note (Event.Seg Event.Req_begin) when info.pid = pid && !budget > 0 ->
            let k = !passages in
            incr passages;
            if k mod period = period - 1 then begin
              decr budget;
              Crash After
            end
            else No_crash
        | _ -> No_crash);
    async = no_async;
    system = no_system;
    por = Robust [ pid ];
  }

let target_holder ?lock ~seed ~rate ~max_crashes () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Crash.target_holder: rate must be in [0, 1]";
  let rng = Random.State.make [| seed; 0x401de2 |] in
  let budget = ref max_crashes in
  let inside : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let matches id = match lock with None -> true | Some l -> l = id in
  {
    label = Printf.sprintf "holder(rate=%g,max=%d)" rate max_crashes;
    on_op =
      (fun info ->
        (* Track the span before deciding, so the entering note itself is a
           valid strike point.  A fresh [Ncs_begin]/[Req_begin] clears the
           mark: a crash (ours or another plan's) restarts the body, and the
           stale span must not leak into the victim's NCS. *)
        (match info.op with
        | Api.Note (Event.Lock_enter id) when matches id -> Hashtbl.replace inside info.pid ()
        | Api.Note (Event.Lock_released id) when matches id -> Hashtbl.remove inside info.pid
        | Api.Note (Event.Seg (Event.Ncs_begin | Event.Req_begin)) -> Hashtbl.remove inside info.pid
        | _ -> ());
        if !budget > 0 && Hashtbl.mem inside info.pid && Random.State.float rng 1.0 < rate
        then begin
          decr budget;
          Crash (if Random.State.bool rng then Before else After)
        end
        else No_crash);
    async = no_async;
    system = no_system;
    por = Sensitive;
  }

let target_window ~seed ~rate ~max_crashes () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Crash.target_window: rate must be in [0, 1]";
  let rng = Random.State.make [| seed; 0x7a26e7 |] in
  let budget = ref max_crashes in
  {
    label = Printf.sprintf "window(rate=%g,max=%d)" rate max_crashes;
    on_op =
      (fun info ->
        (* [Before] keeps the crash strictly inside the open window: crashing
           After the instruction that closes it would land outside. *)
        if !budget > 0 && info.unsafe_wrt <> [] && Random.State.float rng 1.0 < rate then begin
          decr budget;
          Crash Before
        end
        else No_crash);
    async = no_async;
    system = no_system;
    por = Sensitive;
  }

let repeat_offender ~victim ~gap ~times =
  if gap < 0 then invalid_arg "Crash.repeat_offender: gap must be non-negative";
  let budget = ref times in
  let countdown = ref (-1) in
  {
    label = Printf.sprintf "repeat-offender(p%d,gap=%d,times=%d)" victim gap times;
    on_op =
      (fun info ->
        if info.pid <> victim || !budget <= 0 then No_crash
        else begin
          (match info.op with
          | Api.Note (Event.Seg Event.Req_begin) when !countdown < 0 -> countdown := gap
          | _ -> ());
          if !countdown = 0 then begin
            (* Re-arm immediately: the next strike lands [gap] victim
               instructions into the restarted (recovering) passage. *)
            countdown := gap;
            decr budget;
            Crash After
          end
          else begin
            if !countdown > 0 then decr countdown;
            No_crash
          end
        end);
    async = no_async;
    system = no_system;
    por = Robust [ victim ];
  }

let storm ~seed ~rate ~max_crashes ~gap ?(backoff = 1.0) ?pids () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Crash.storm: rate must be in [0, 1]";
  if gap < 0 then invalid_arg "Crash.storm: gap must be non-negative";
  if backoff < 1.0 then invalid_arg "Crash.storm: backoff must be >= 1";
  let rng = Random.State.make [| seed; 0x5702e0 |] in
  let budget = ref max_crashes in
  let next_ok = ref 0 in
  let cur_gap = ref (float_of_int gap) in
  let eligible =
    match pids with None -> fun _ -> true | Some ps -> fun pid -> List.mem pid ps
  in
  {
    label = Printf.sprintf "storm(rate=%g,max=%d,gap=%d,backoff=%g)" rate max_crashes gap backoff;
    on_op =
      (fun info ->
        if
          !budget > 0 && info.step >= !next_ok && eligible info.pid
          && Random.State.float rng 1.0 < rate
        then begin
          decr budget;
          next_ok := info.step + int_of_float !cur_gap;
          cur_gap := !cur_gap *. backoff;
          Crash (if Random.State.bool rng then Before else After)
        end
        else No_crash);
    async = no_async;
    system = no_system;
    por = Sensitive;
  }

(* {1 System-wide crashes}

   The failure model of Jayanti–Jayanti–Joshi (arXiv 2302.00748): every
   process loses its private state at one instant while NVRAM persists.  A
   system plan is consulted once per engine iteration, on the global step
   counter only, and therefore is always [Sensitive] — which step an
   iteration lands on depends on the whole interleaving. *)

let system_at ~step =
  let fired = ref false in
  {
    label = Printf.sprintf "system-at(%d)" step;
    on_op = (fun _ -> No_crash);
    async = no_async;
    system =
      (fun ~step:now ->
        if (not !fired) && now >= step then begin
          fired := true;
          true
        end
        else false);
    por = Sensitive;
  }

let system_random ~seed ~rate ~max_crashes () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Crash.system_random: rate must be in [0, 1]";
  let rng = Random.State.make [| seed; 0x5b5c8a |] in
  let budget = ref max_crashes in
  {
    label = Printf.sprintf "system-random(rate=%g,max=%d)" rate max_crashes;
    on_op = (fun _ -> No_crash);
    async = no_async;
    system =
      (fun ~step:_ ->
        if !budget > 0 && Random.State.float rng 1.0 < rate then begin
          decr budget;
          true
        end
        else false);
    por = Sensitive;
  }

let system_storm ~seed ~rate ~max_crashes ~gap ?(backoff = 1.0) () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Crash.system_storm: rate must be in [0, 1]";
  if gap < 0 then invalid_arg "Crash.system_storm: gap must be non-negative";
  if backoff < 1.0 then invalid_arg "Crash.system_storm: backoff must be >= 1";
  let rng = Random.State.make [| seed; 0x5b5702 |] in
  let budget = ref max_crashes in
  let next_ok = ref 0 in
  let cur_gap = ref (float_of_int gap) in
  {
    label =
      Printf.sprintf "system-storm(rate=%g,max=%d,gap=%d,backoff=%g)" rate max_crashes gap backoff;
    on_op = (fun _ -> No_crash);
    async = no_async;
    system =
      (fun ~step ->
        if !budget > 0 && step >= !next_ok && Random.State.float rng 1.0 < rate then begin
          decr budget;
          next_ok := step + int_of_float !cur_gap;
          cur_gap := !cur_gap *. backoff;
          true
        end
        else false);
    por = Sensitive;
  }

type fired = {
  f_pid : int;
  f_op_index : int;
  f_step : int;
  f_point : point;
  f_async : bool;
}

let record_fired plan =
  let fired = ref [] in
  let push f = fired := f :: !fired in
  let wrapped =
    {
      plan with
      on_op =
        (fun info ->
          match plan.on_op info with
          | No_crash -> No_crash
          | Crash point as c ->
              push
                {
                  f_pid = info.pid;
                  f_op_index = info.op_index;
                  f_step = info.step;
                  f_point = point;
                  f_async = false;
                };
              c);
      async =
        (fun ~step ->
          let pids = plan.async ~step in
          List.iter
            (fun pid ->
              push { f_pid = pid; f_op_index = -1; f_step = step; f_point = Before; f_async = true })
            pids;
          pids);
      system =
        (fun ~step ->
          let hit = plan.system ~step in
          if hit then
            push { f_pid = -1; f_op_index = -1; f_step = step; f_point = Before; f_async = true };
          hit);
    }
  in
  (wrapped, fun () -> List.rev !fired)

let all plans =
  {
    label = String.concat "+" (List.map (fun p -> p.label) plans);
    on_op =
      (fun info ->
        let rec loop = function
          | [] -> No_crash
          | p :: rest -> ( match p.on_op info with No_crash -> loop rest | c -> c)
        in
        loop plans);
    async = (fun ~step -> List.concat_map (fun p -> p.async ~step) plans);
    (* No short circuit: every member must be consulted each iteration so
       stateful system plans keep winding forward identically whether or
       not an earlier member fired. *)
    system = (fun ~step -> List.fold_left (fun acc p -> p.system ~step || acc) false plans);
    (* Each robust member decides from its victim's own history, and the
       first-decision-wins short circuit only ever masks consults on ops
       that another member deterministically (per-pid) crashed — so the
       union of robust plans is robust, over the union of victims. *)
    por =
      List.fold_left
        (fun acc p ->
          match (acc, p.por) with
          | Sensitive, _ | _, Sensitive -> Sensitive
          | Robust a, Robust b ->
              Robust (List.sort_uniq Int.compare (List.rev_append b a)))
        (Robust []) plans;
  }

let replay_fired fired =
  match fired with
  | [] -> none
  | _ ->
      let plan_of f =
        if f.f_async then
          if f.f_pid < 0 then system_at ~step:f.f_step else async_at [ (f.f_step, f.f_pid) ]
        else at_op ~pid:f.f_pid ~nth:f.f_op_index f.f_point
      in
      let plans = List.map plan_of fired in
      { (all plans) with label = Printf.sprintf "replay-fired(%d)" (List.length fired) }
