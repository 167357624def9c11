(* The isolated layer suite: micro-timings of single layers, each calling
   the public functions of one module directly, timed with Bechamel
   (ordinary least squares over the monotonic clock).

   Fixtures come from the explorer's sa-me-n2 subject (the SA stack over
   the JJJ-shape base lock, two processes, CC), so the store sizes, state
   keys and footprint streams are the ones the explorer really handles.
   Each timed closure performs a batch of operations and the estimate is
   divided by the batch size. *)

open Rme_sim
module Hist = Rme_check.Metrics.Hist
module Statecache = Rme_check.Statecache

let sa_make = (Rme.Spec.find_exn "sa-jjj").Rme.Spec.make

let sa_body lock ~pid = Harness.standard_body ~lock ~requests:1 pid

(* The subject's run on the default schedule (decision 0 everywhere). *)
let sa_resumable ?from ?snap_gap ?snap ?(por = false) decisions =
  Engine.run_resumable ?from ?snap_gap ?snap ~por ~decisions ~max_steps:20_000 ~n:2
    ~model:Memory.CC ~crash:(fun () -> Crash.none) ~setup:sa_make ~body:sa_body ()

type fixture = {
  store : Memory.t;  (** the subject's store after a complete run *)
  key : int array;  (** an engine state key of the subject *)
  snap : Engine.Snap.t;  (** a checkpoint halfway through the run *)
  branch : int array;  (** decisions that deviate at the checkpoint *)
  footprints : Footprint.t array;  (** executed step per decision position *)
  degrees : int array;
}

let fixture () =
  let store = ref None in
  let key = ref [||] in
  ignore
    (Engine.run ~state_key_at:8 ~on_state_key:(fun k -> key := k) ~n:2 ~model:Memory.CC
       ~sched:(Sched.round_robin ()) ~crash:Crash.none
       ~setup:(fun ctx ->
         store := Some (Engine.Ctx.memory ctx);
         sa_make ctx)
       ~body:sa_body ());
  let snaps = ref [] in
  let rr = sa_resumable ~por:true ~snap_gap:1 ~snap:(fun s -> snaps := s :: !snaps) [||] in
  let snaps = Array.of_list (List.rev !snaps) in
  let snap = snaps.(Array.length snaps / 2) in
  let branch = Array.init (Engine.Snap.pos snap + 1) (fun i -> if i = Engine.Snap.pos snap then 1 else 0) in
  (* Footprints are pushed per runnable pid in ascending order; decision 0
     takes the first of each position's block. *)
  let degrees = rr.Engine.rr_degrees in
  let offset = ref 0 in
  let footprints =
    Array.map
      (fun d ->
        let f = rr.Engine.rr_footprints.(!offset) in
        offset := !offset + d;
        f)
      degrees
  in
  { store = Option.get !store; key = !key; snap; branch; footprints; degrees }

(* Resuming from a checkpoint must reproduce a full replay exactly. *)
let resume_matches_replay fx =
  let strip (r : Engine.rrun) =
    let res = r.Engine.rr_result in
    (res.Engine.steps, res.Engine.total_rmr, res.Engine.procs, res.Engine.cs_max, r.Engine.rr_degrees)
  in
  strip (sa_resumable ~from:fx.snap fx.branch) = strip (sa_resumable fx.branch)

let batch = 64

(* (metric name, unit, divisor, closure): the estimate in ns per call is
   divided by [divisor] to give the metric's unit. *)
let tests fx =
  let per_op = float_of_int batch in
  let ns = 1.0 and us = 1000.0 in
  let yields k =
    Engine.run ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash:Crash.none ~setup:sa_make
      ~body:(fun _ ~pid:_ ->
        for _ = 1 to k do
          Api.yield ()
        done)
  in
  let mem model =
    let m = Memory.create model ~n:8 in
    let cells = Array.init batch (fun i -> Memory.alloc m ~home:(i mod 8) ~name:"c" 0) in
    (m, cells)
  in
  let mem_ops model =
    let m, cells = mem model in
    let prefix = match model with Memory.CC -> "memory.cc." | Memory.DSM -> "memory.dsm." in
    [
      ( prefix ^ "read_ns",
        "ns",
        per_op *. ns,
        fun () ->
          for i = 0 to batch - 1 do
            ignore (Memory.read_u m ~pid:(i land 7) (Array.unsafe_get cells i))
          done );
      ( prefix ^ "cas_ns",
        "ns",
        per_op *. ns,
        fun () ->
          for i = 0 to batch - 1 do
            ignore (Memory.cas_u m ~pid:(i land 7) (Array.unsafe_get cells i) ~expect:0 ~value:0)
          done );
      ( prefix ^ "fas_ns",
        "ns",
        per_op *. ns,
        fun () ->
          for i = 0 to batch - 1 do
            ignore (Memory.fas_u m ~pid:(i land 7) (Array.unsafe_get cells i) i)
          done );
    ]
  in
  let picks k =
    let s = Sched.random ~seed:k in
    let runnable = Array.init k Fun.id in
    fun () ->
      for step = 1 to batch do
        ignore (Sched.pick s ~runnable ~step)
      done
  in
  let trace_decisions = Vec.of_list (List.init batch (fun i -> i land 1)) in
  let runnable2 = [| 0; 1 |] in
  let hist = Hist.create () in
  let samples = Array.init batch (fun i -> 40 + (i * 37 mod 1500)) in
  let keys =
    Array.init 4096 (fun i ->
        let k = Array.copy fx.key in
        k.(0) <- k.(0) + i;
        k)
  in
  let cache = Statecache.create ~capacity:65536 () in
  Array.iter (fun key -> Statecache.add cache ~key ~slept:0 ~summary:()) keys;
  let cursor = ref 0 in
  let next_key () =
    cursor := (!cursor + 1) land 4095;
    Array.unsafe_get keys !cursor
  in
  let image = Memory.snapshot fx.store in
  let len = Array.length fx.footprints in
  [
    ("engine.run_setup_us", "us", us, fun () -> ignore (yields 0 ()));
    ("api.yield_step_ns", "ns", 0.0 (* derived below *), fun () -> ignore (yields 256 ()));
    ("engine.replay_us", "us", us, fun () -> ignore (sa_resumable fx.branch));
    ("engine.resume_us", "us", us, fun () -> ignore (sa_resumable ~from:fx.snap fx.branch));
    ("memory.snapshot_us", "us", us, fun () -> ignore (Memory.snapshot fx.store));
    ("memory.restore_us", "us", us, fun () -> Memory.restore fx.store image);
    ("memory.fingerprint_ns", "ns", ns, fun () -> ignore (Memory.fingerprint fx.store));
    ("sched.random_pick_k8_ns", "ns", per_op *. ns, picks 8);
    ("sched.random_pick_k16_ns", "ns", per_op *. ns, picks 16);
    ( "sched.trace_pick_ns",
      "ns",
      per_op *. ns,
      fun () ->
        let s = Sched.trace ~decisions:trace_decisions ~record:(Vec.create ()) () in
        for step = 1 to batch do
          ignore (Sched.pick s ~runnable:runnable2 ~step)
        done );
    ( "metrics.hist_add_ns",
      "ns",
      per_op *. ns,
      fun () ->
        for i = 0 to batch - 1 do
          Hist.add hist (Array.unsafe_get samples i)
        done );
    ( "statecache.find_ns",
      "ns",
      per_op *. ns,
      fun () ->
        for _ = 1 to batch do
          ignore (Statecache.find cache ~key:(next_key ()) ~slept:0)
        done );
    ( "statecache.add_ns",
      "ns",
      per_op *. ns,
      fun () ->
        for _ = 1 to batch do
          Statecache.add cache ~key:(next_key ()) ~slept:0 ~summary:()
        done );
    ( "footprint.race_scan_us",
      "us",
      us,
      fun () ->
        Footprint.Race.scan ~n:2 ~len
          ~executed:(fun i -> Array.unsafe_get fx.footprints i)
          ~degree:(fun i -> Array.unsafe_get fx.degrees i)
          ~emit:(fun ~pos:_ ~pid:_ -> ()) );
  ]
  @ mem_ops Memory.CC @ mem_ops Memory.DSM

(* Runs the suite; returns (name, unit, value) in suite order.  The yield
   cost is the difference between a run whose two processes each yield
   256 times and one whose bodies return at once, per yield. *)
let run ~quota =
  let open Bechamel in
  let fx = fixture () in
  let tests = tests fx in
  let grouped =
    Test.make_grouped ~name:"layers" ~fmt:"%s%s"
      (List.map (fun (name, _, _, f) -> Test.make ~name (Staged.stage f)) tests)
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:400 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let est name =
    match Hashtbl.find_opt results ("layers" ^ name) with
    | Some r -> (
        match Analyze.OLS.estimates r with Some [ e ] -> Float.max 0.0 e | _ -> 0.0)
    | None -> 0.0
  in
  let setup_ns = est "engine.run_setup_us" in
  let values =
    List.map
      (fun (name, unit, div, _) ->
        if name = "api.yield_step_ns" then
          (name, unit, Float.max 0.0 (est name -. setup_ns) /. float_of_int (2 * 256))
        else (name, unit, est name /. div))
      tests
  in
  (values, resume_matches_replay fx)
