(* storm-closed: BA-Lock over the JJJ-shape base lock (ba-jjj), 16
   processes under DSM, in closed loop through Rme.Workload.run, with a
   FAS storm of F = offered passages / 16 unsafe failures at rate 0.4.

   There is no pacing: the lock algorithm does the work — BA levels,
   splitter, arbitrator, recovery — and the engine consults the crash plan
   at every instruction.  This is the paper's adaptivity claim (RMRs
   grow with sqrt F) turned into numbers, on the DSM accounting path. *)

open Rme_sim

let n = 16
let requests = 1_200  (* per process and measured round: 19,200 passages offered *)

(* Per process, in the reference run the simulated metrics come from:
   76,800 passages, so the tail latencies rest on enough samples (with
   19,200, the p999's spread over ten seeds was 0.13). *)
let reference_requests = 4_800
let spec = Rme.Spec.headline

let cfg ~seed ~requests =
  {
    Rme.Workload.default_cfg with
    n;
    model = Memory.DSM;
    requests;
    seed;
    scenario = Rme.Workload.Fas_storm { f = n * requests / 16; rate = 0.4 };
    max_steps = 400 * n * requests + 100_000;
  }

type sim = {
  offered : int;
  satisfied : int;
  steps : int;
  cs_max : int;
  stalled : bool;
  all_satisfied : bool;
  crashes : int;
  passages : int;  (** completed or ended by a crash *)
  completed : int;
  lat : int * int * int;
  rmr : Common.rmr;
  rmr_by_kind : (Api.kind * int) list;
}

let summarize (c : Rme.Workload.cfg) (res : Engine.result) =
  let ps = Common.passages () in
  Common.add_result ps res;
  let m = Rme.Workload.measure res in
  {
    offered = c.Rme.Workload.n * c.Rme.Workload.requests;
    satisfied = Engine.total_completed res;
    steps = res.Engine.steps;
    cs_max = res.Engine.cs_max;
    stalled = res.Engine.deadlocked || res.Engine.timed_out || res.Engine.stall <> None;
    all_satisfied = m.Rme.Workload.satisfied && m.Rme.Workload.me_ok;
    crashes = res.Engine.total_crashes;
    passages = ps.Common.count;
    completed = ps.Common.completed;
    lat = Common.percentiles ps.Common.lat;
    rmr = Common.rmr ps;
    rmr_by_kind = res.Engine.rmr_by_kind;
  }

let units s = s.offered

let failed s =
  if s.cs_max > 1 || s.stalled || not s.all_satisfied then s.offered else s.offered - s.satisfied

(* The lock, with a tick after every release: the recurring point of a
   closed-loop round. *)
let ticking ticks =
  {
    spec with
    Rme.Spec.make =
      (fun ctx ->
        let (l : Rme_locks.Lock.t) = spec.Rme.Spec.make ctx in
        {
          l with
          Rme_locks.Lock.release =
            (fun ~pid ->
              l.Rme_locks.Lock.release ~pid;
              Report.tick ticks);
        });
  }

let run_once ?(ticks = Report.ticks ()) c =
  Report.tick ticks;
  let res = Rme.Workload.run (ticking ticks) c in
  Report.tick ticks;
  summarize c res

(* The same engine run as [Rme.Workload.run], with the traced sink and
   instruction hook attached. *)
let run_traced (c : Rme.Workload.cfg) spans =
  let open Rme.Workload in
  let cs ~pid:_ =
    for _ = 1 to c.cs_yields do
      Api.yield ()
    done
  in
  let res =
    Engine.run
      ~sink:(Event.Sink.callback (Spans.on_event spans))
      ~on_op:(Spans.on_op spans) ~max_steps:c.max_steps ~n:c.n ~model:c.model
      ~sched:(Sched.random ~seed:c.seed)
      ~crash:(crash_plan c.scenario ~seed:(c.seed + 7919))
      ~abort:(abort_plan c.scenario) ~setup:spec.Rme.Spec.make
      ~body:(fun lock ~pid -> Harness.standard_body ~cs ~lock ~requests:c.requests pid)
      ()
  in
  (summarize c res, res)

let held_out seed = seed lxor 0x3C6EF372

let run ~seed ~seconds ~trace (r : Report.t) =
  let setup =
    Common.setup (fun () ->
        let c = cfg ~seed ~requests in
        ignore (run_once (cfg ~seed:(seed + 1) ~requests:100));
        c)
  in
  let c = setup.Common.value in
  let ho = run_once (cfg ~seed:(held_out seed) ~requests:100) in
  Report.units r ~what:"held-out seed run" ~attempted:(units ho) ~failed:(failed ho);
  let round ticks = run_once ~ticks c in
  (* The reference run, twice: its results must repeat exactly. *)
  let reference () =
    let s = run_once (cfg ~seed ~requests:reference_requests) in
    Report.units r ~what:"reference run" ~attempted:(units s) ~failed:(failed s);
    s
  in
  let fl = float_of_int in
  if not trace then begin
    let ref1 = reference () in
    let rs = Common.rounds r ~seconds ~setup ~units ~failed round in
    let ref2 = reference () in
    if ref1 <> ref2 then
      Report.units r ~what:"reference run repeats exactly" ~attempted:0 ~failed:(units ref2);
    let s = (List.hd rs).Common.sim in
    Report.note r "each round: %d passages offered, %d steps, %d crashes" s.offered s.steps s.crashes;
    Common.end_to_end r ~rounds:rs ~passages:s.completed ~ops:s.completed
      ~steps_per_passage:(float_of_int ref1.steps /. float_of_int ref1.completed)
      ~latency:ref1.lat ~rmr:ref1.rmr;
    None
  end
  else begin
    let plain, (spans, res) =
      Common.traced_pairs r ~seconds ~units ~failed ~untraced:round ~traced:(fun () ->
          let spans = Spans.create ~n ~keep:20_000 in
          let s, res = run_traced c spans in
          (s, (spans, res)))
    in
    let s = (List.hd plain).Common.sim in
    Common.lock_layers r ~spans ~res ~plain ~passages:s.completed ~rmr:s.rmr ~polls:0;
    Report.metric r "ba_lock.fast_path_frac" "share"
      (fl spans.Spans.fast_paths /. fl (max 1 spans.Spans.paths));
    Report.metric r "ba_lock.level_mean" "level"
      (fl spans.Spans.level_sum /. fl (max 1 spans.Spans.requests_done));
    Report.metric r "ba_lock.level_max" "level" (fl spans.Spans.level_max);
    Report.metric r "crash.per_kpassage" "crashes" (1000.0 *. fl s.crashes /. fl s.completed);
    Report.metric r "crash.unsafe_frac" "share"
      (fl spans.Spans.unsafe_crashes /. fl (max 1 spans.Spans.crashes));
    Report.metric r "engine.crashed_passage_frac" "share"
      (fl (s.passages - s.completed) /. fl s.passages);
    Some (Spans.lines spans res)
  end
