(* Tests for the engine hot-path overhaul and its measurement plumbing:
   Vec edge cases, event sinks (ring wrap-around, policy equivalence),
   the Api.step clock, the `Fast/`Full differential contract, the fixed
   cost of a run (cell names, allocation ceilings, fiber release), the
   log-linear histogram, and the explorer's search-effort counters. *)

open Rme_sim
module Metrics = Rme_check.Metrics
module Hist = Metrics.Hist

let check = Alcotest.check

let ci = Alcotest.int

let cb = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Vec edge cases                                                      *)
(* ------------------------------------------------------------------ *)

let test_vec_blit_prefix_zero () =
  let src = Vec.create () in
  Vec.push src 1;
  Vec.push src 2;
  let dst = Vec.create () in
  Vec.push dst 9;
  Vec.blit_prefix src 0 dst;
  check ci "length unchanged" 1 (Vec.length dst);
  check ci "contents unchanged" 9 (Vec.get dst 0);
  (* Zero-length blit from an empty source is a no-op, not an error. *)
  Vec.blit_prefix (Vec.create ()) 0 dst;
  check ci "still unchanged" 1 (Vec.length dst)

let test_vec_blit_prefix_bounds () =
  let src = Vec.create () in
  Vec.push src 1;
  let raised =
    match Vec.blit_prefix src 2 (Vec.create ()) with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  check cb "len beyond source rejected" true raised

let test_vec_push_through_growth () =
  (* Push across several doubling boundaries and verify every element
     lands where it should, including the pushes at exact capacity. *)
  let v = Vec.create () in
  for i = 0 to 1000 do
    Vec.push v i;
    check ci "length tracks pushes" (i + 1) (Vec.length v);
    check ci "last is the push" i (Vec.last v)
  done;
  for i = 0 to 1000 do
    check ci "element survived growth" i (Vec.get v i)
  done

let test_vec_unsafe_get_after_resize () =
  let v = Vec.create () in
  for i = 0 to 300 do
    Vec.push v (i * 7)
  done;
  (* unsafe_get must agree with get on every valid index even after the
     backing array has been reallocated several times. *)
  for i = 0 to 300 do
    check ci "unsafe_get = get" (Vec.get v i) (Vec.unsafe_get v i)
  done;
  Vec.clear v;
  check ci "clear empties" 0 (Vec.length v);
  Vec.push v 42;
  check ci "push after clear" 42 (Vec.get v 0)

(* ------------------------------------------------------------------ *)
(* Event sinks                                                         *)
(* ------------------------------------------------------------------ *)

let note_at step = Event.Note { step; pid = 0; super = 0; note = Event.Seg Event.Req_begin }

let test_sink_drop () =
  let s = Event.Sink.drop in
  check cb "drop wants nothing" false (Event.Sink.wants s);
  Event.Sink.emit s (note_at 1);
  check ci "nothing counted" 0 (Event.Sink.emitted s);
  check cb "no events retained" true (Event.Sink.events s = [])

let test_sink_ring_wraparound () =
  let s = Event.Sink.ring ~capacity:4 in
  check cb "ring wants events" true (Event.Sink.wants s);
  for i = 1 to 10 do
    Event.Sink.emit s (note_at i)
  done;
  check ci "all emissions counted" 10 (Event.Sink.emitted s);
  let steps = List.map Event.step (Event.Sink.events s) in
  check cb "trailing window in order" true (steps = [ 7; 8; 9; 10 ]);
  Event.Sink.clear s;
  check ci "clear resets" 0 (Event.Sink.emitted s);
  check cb "clear empties" true (Event.Sink.events s = []);
  (* Partial fill: no wrap yet, events come back in emission order. *)
  Event.Sink.emit s (note_at 1);
  Event.Sink.emit s (note_at 2);
  check cb "partial window" true (List.map Event.step (Event.Sink.events s) = [ 1; 2 ])

let test_sink_callback_streams () =
  let got = ref [] in
  let s = Event.Sink.callback (fun ev -> got := Event.step ev :: !got) in
  for i = 1 to 5 do
    Event.Sink.emit s (note_at i)
  done;
  check cb "delivered in order" true (List.rev !got = [ 1; 2; 3; 4; 5 ]);
  check ci "emitted counts" 5 (Event.Sink.emitted s);
  check cb "nothing retained" true (Event.Sink.events s = [])

(* ------------------------------------------------------------------ *)
(* Engine: sink policies and the fast-path differential                 *)
(* ------------------------------------------------------------------ *)

let lock_workload ?mode ?sink ?record () =
  let body lock ~pid = Harness.standard_body ~lock ~requests:3 pid in
  Engine.run ?mode ?sink ?record ~n:3 ~model:Memory.CC
    ~sched:(Sched.random ~seed:42)
    ~crash:Crash.none ~setup:Rme_locks.Wr_lock.make ~body ()

let test_keep_vs_drop_equivalence () =
  (* The sink policy must never change what happens — only what is
     retained.  Same schedule, all result fields equal except [events]. *)
  let kept = lock_workload ~sink:(Event.Sink.keep ()) () in
  let dropped = lock_workload ~sink:Event.Sink.drop () in
  check cb "keep retains history" true (kept.Engine.events <> []);
  check cb "drop retains nothing" true (dropped.Engine.events = []);
  check cb "all other fields equal" true
    ({ kept with Engine.events = [] } = dropped)

let test_ring_is_keep_suffix () =
  let kept = lock_workload ~sink:(Event.Sink.keep ()) () in
  let ring = Event.Sink.ring ~capacity:8 in
  let ringed = lock_workload ~sink:ring () in
  let suffix l n =
    let len = List.length l in
    List.filteri (fun i _ -> i >= len - n) l
  in
  check cb "ring = trailing window of keep" true
    (ringed.Engine.events = suffix kept.Engine.events 8);
  check cb "same results otherwise" true
    ({ kept with Engine.events = [] } = { ringed with Engine.events = [] })

let test_fast_full_differential () =
  (* The tentpole contract: `Fast elides bookkeeping, never semantics.
     Every field of the result — steps, RMRs by kind, per-process
     passages with their latencies, lock stats, cs_max — must be
     byte-identical across `Fast, `Auto and `Full on the same schedule. *)
  let fast = lock_workload ~mode:`Fast () in
  let auto = lock_workload ~mode:`Auto () in
  let full = lock_workload ~mode:`Full () in
  check cb "fast = auto" true (fast = auto);
  check cb "fast = full" true (fast = full);
  check cb "work happened" true (fast.Engine.steps > 0 && fast.Engine.total_rmr > 0)

let test_fast_rejects_instrumented_configs () =
  let crashy () =
    ignore
      (Engine.run ~mode:`Fast ~n:2 ~model:Memory.CC
         ~sched:(Sched.round_robin ())
         ~crash:(Crash.random ~seed:0 ~rate:1.0 ~max_crashes:1 ())
         ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
         ~body:(fun c ~pid:_ -> Api.write c 1)
         ())
  in
  let sinky () =
    ignore
      (Engine.run ~mode:`Fast
         ~sink:(Event.Sink.keep ())
         ~n:2 ~model:Memory.CC
         ~sched:(Sched.round_robin ())
         ~crash:Crash.none
         ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
         ~body:(fun c ~pid:_ -> Api.write c 1)
         ())
  in
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check cb "crash plan rejected" true (raises crashy);
  check cb "event sink rejected" true (raises sinky)

let test_api_step_monotone () =
  (* Api.step is the global simulated clock: non-decreasing within a
     process, strictly increasing across its own observations (each
     observation is itself a step), and consistent with the final
     result. *)
  let seen = ref [] in
  let res =
    Engine.run ~n:2 ~model:Memory.CC
      ~sched:(Sched.random ~seed:7)
      ~crash:Crash.none
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
      ~body:(fun c ~pid ->
        for _ = 1 to 5 do
          let s = Api.step () in
          if pid = 0 then seen := s :: !seen;
          Api.write c s;
          Api.yield ()
        done)
      ()
  in
  let obs = List.rev !seen in
  check cb "observed some steps" true (List.length obs = 5);
  check cb "strictly increasing" true
    (List.for_all2 (fun a b -> a < b) (List.filteri (fun i _ -> i < 4) obs) (List.tl obs));
  check cb "bounded by the run" true (List.for_all (fun s -> s <= res.Engine.steps) obs)

let test_open_loop_pacing () =
  (* The service harness's pacing idiom: a client polling the clock wakes
     at-or-after its due step, never before. *)
  let due = 40 in
  let woke = ref (-1) in
  ignore
    (Engine.run ~n:2 ~model:Memory.CC
       ~sched:(Sched.round_robin ())
       ~crash:Crash.none
       ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
       ~body:(fun c ~pid ->
         if pid = 0 then begin
           while Api.step () < due do
             Api.yield ()
           done;
           woke := Api.step ();
           Api.write c 1
         end
         else for _ = 1 to 30 do Api.yield () done)
       ());
  check cb "woke at or after due" true (!woke >= due)

(* ------------------------------------------------------------------ *)
(* Dispatch allocation                                                 *)
(* ------------------------------------------------------------------ *)

(* Minor words per engine step of a one-process run (`Fast unless a crash
   plan is given) whose body repeats [instr].  Two run lengths are
   differenced so the run's set-up cancels; the random scheduler's pick
   allocates nothing, so what is left is the dispatch of one instruction
   (and its crash consult, under a plan). *)
let words_per_step ?crash instr =
  let measure iters =
    let run () =
      let mode, crash =
        match crash with Some plan -> (`Auto, plan ()) | None -> (`Fast, Crash.none)
      in
      Engine.run ~mode ~n:1 ~model:Memory.CC ~sched:(Sched.random ~seed:1) ~crash
        ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
        ~body:(fun c ~pid:_ ->
          for _ = 1 to iters do
            instr c
          done)
        ()
    in
    ignore (run ());
    let m0 = Gc.minor_words () in
    let res = run () in
    (Gc.minor_words () -. m0, res.Engine.steps)
  in
  let w1, s1 = measure 1_000 and w2, s2 = measure 21_000 in
  (w2 -. w1) /. float_of_int (s2 - s1)

(* Ceilings with headroom over the measured words (OCaml 5.1), so they
   hold across compilers: a constant instruction allocates only the
   runtime's continuation and the [Ready] state block (5 words); any other
   adds its [Api.op] (2-4 words) inside the [Instr] effect (3 words). *)
let test_constant_instr_alloc () =
  let w = words_per_step (fun _ -> Api.yield ()) in
  check cb (Printf.sprintf "yield: %.1f words/step <= 8" w) true (w <= 8.0);
  let w = words_per_step (fun _ -> ignore (Api.step ())) in
  check cb (Printf.sprintf "step: %.1f words/step <= 8" w) true (w <= 8.0);
  let w = words_per_step (fun _ -> if Api.step () >= 0 then Api.yield ()) in
  check cb (Printf.sprintf "step+yield: %.1f words/step <= 8" w) true (w <= 8.0)

let test_read_alloc () =
  let w = words_per_step (fun c -> ignore (Api.read c)) in
  check cb (Printf.sprintf "read: %.1f words/step <= 11" w) true (w <= 11.0)

(* Measured 11, 12, 11 and 10 words. *)
let test_memory_instr_alloc () =
  let ceiling name instr =
    let w = words_per_step instr in
    check cb (Printf.sprintf "%s: %.1f words/step <= 13" name w) true (w <= 13.0)
  in
  ceiling "write" (fun c -> Api.write c 1);
  ceiling "cas" (fun c -> ignore (Api.cas c ~expect:0 ~value:0));
  ceiling "fas" (fun c -> ignore (Api.fas c 0));
  ceiling "note" (fun _ -> Api.note (Event.Level 1))

(* The crash consult overwrites one record per run: a read consulted by a
   plan that never fires costs what the fast path costs (10 words
   measured; 24 when each consult built its own record). *)
let test_consulted_read_alloc () =
  let fast = words_per_step (fun c -> ignore (Api.read c)) in
  let never () = Crash.random ~seed:1 ~rate:0.0 ~max_crashes:0 () in
  let w = words_per_step ~crash:never (fun c -> ignore (Api.read c)) in
  check cb (Printf.sprintf "consulted read: %.1f words/step <= %.1f + 2" w fast) true
    (w <= fast +. 2.0)

(* A body exercising all four argument-free instructions — the ones
   answered from preallocated suspensions — next to ordinary memory
   instructions, under crashes it survives through [completed_requests]. *)
let constant_instr_body c ~pid =
  while Api.completed_requests () < 3 do
    Api.note (Event.Seg Event.Req_begin);
    let due = Api.step () + 3 + pid in
    while Api.step () < due do
      Api.yield ()
    done;
    if not (Api.poll_abort ()) then Api.write c (pid + 1);
    ignore (Api.faa c (Api.completed_requests ()));
    Api.note (Event.Seg Event.Req_done)
  done

let const_setup ctx = Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0

let test_constant_instr_modes () =
  let run mode =
    Engine.run ~mode ~n:3 ~model:Memory.CC ~sched:(Sched.random ~seed:5) ~crash:Crash.none
      ~setup:const_setup ~body:constant_instr_body ()
  in
  let fast = run `Fast and auto = run `Auto and full = run `Full in
  check cb "fast = auto" true (fast = auto);
  check cb "fast = full" true (fast = full);
  check ci "every request served" 9 (Engine.total_completed fast)

let test_constant_instr_resume () =
  let crash () = Crash.random ~seed:3 ~rate:0.05 ~max_crashes:4 () in
  let go ?from ?snap decisions =
    Engine.run_resumable ?from ?snap ~snap_gap:(if snap = None then 0 else 1) ~record:true
      ~decisions ~n:3 ~model:Memory.CC ~crash ~setup:const_setup ~body:constant_instr_body ()
  in
  let base = Array.init 40 (fun i -> (i * 7) mod 3) in
  let snaps = ref [] in
  let rr = go ~snap:(fun s -> snaps := s :: !snaps) base in
  check cb "the plan crashed someone" true (rr.Engine.rr_result.Engine.total_crashes > 0);
  check cb "snapshots taken" true (List.length !snaps > 2);
  List.iter
    (fun s ->
      let pos = Engine.Snap.pos s in
      (* Agree with the capturing run up to the checkpoint (which took
         choice 0 past the end of [base]), then deviate. *)
      let decisions =
        Array.init (pos + 20) (fun i ->
            if i >= pos then i + 1 else if i < Array.length base then base.(i) else 0)
      in
      let resumed = go ~from:s decisions and replayed = go decisions in
      check cb (Printf.sprintf "resume@%d = replay (result)" pos) true
        (resumed.Engine.rr_result = replayed.Engine.rr_result);
      check cb (Printf.sprintf "resume@%d = replay (degrees)" pos) true
        (resumed.Engine.rr_degrees = replayed.Engine.rr_degrees))
    !snaps

(* A body performing every [Api.op] constructor: reads, writes, a cas
   that may succeed and one that always fails, fas, faa, the window pair
   [fas_open_unsafe]/[write_close_unsafe], [fas_persist], both spins (the
   processes wait for each other's [faa] on [gate], so some park and are
   woken; every threshold is met once p0 has finished, so none
   deadlocks), notes with payloads, the clock, [completed_requests],
   [poll_abort] and [yield]. *)
let every_op_setup ctx =
  let mem = Engine.Ctx.memory ctx in
  let lock = Engine.Ctx.register_lock ctx "window" in
  (lock, Memory.alloc mem ~name:"c" 0, Memory.alloc mem ~name:"d" 0, Memory.alloc mem ~name:"gate" 0)

let every_op_body (lock, c, d, gate) ~pid =
  while Api.completed_requests () < 3 do
    Api.note (Event.Seg Event.Req_begin);
    Api.note (Event.Level (Api.step () mod 4));
    Api.note (Event.Custom "probe");
    let v = Api.read c in
    ignore (Api.cas c ~expect:v ~value:(v + 1));
    ignore (Api.cas c ~expect:(-1) ~value:0);
    let old = Api.fas_open_unsafe ~lock c (pid + 10) in
    Api.write_close_unsafe ~lock d old;
    Api.fas_persist c (old + 1) ~dst:d;
    ignore (Api.faa gate 1);
    Api.spin_until gate (Api.Ge 3);
    Api.spin_abortable gate (Api.Ge (pid + 3));
    if not (Api.poll_abort ()) then Api.yield ();
    Api.write c (Api.fas d pid);
    Api.note (Event.Seg Event.Req_done)
  done

let test_every_op_modes () =
  let run mode =
    Engine.run ~mode ~n:3 ~model:Memory.DSM ~sched:(Sched.random ~seed:9) ~crash:Crash.none
      ~setup:every_op_setup ~body:every_op_body ()
  in
  let fast = run `Fast and auto = run `Auto and full = run `Full in
  check cb "fast = auto" true (fast = auto);
  check cb "fast = full" true (fast = full);
  check ci "every request served" 9 (Engine.total_completed fast);
  (* 19 instructions per request, a last [completed_requests] and a first
     dispatch per process: every step beyond those woke a parked spin. *)
  check cb "a spin parked and was woken" true (fast.Engine.steps > (9 * 19) + 3 + 3)

let test_every_op_resume () =
  let crash () = Crash.random ~seed:3 ~rate:0.04 ~max_crashes:4 () in
  let go ?from ?snap decisions =
    Engine.run_resumable ?from ?snap ~snap_gap:(if snap = None then 0 else 1) ~record:true
      ~decisions ~n:3 ~model:Memory.DSM ~crash ~setup:every_op_setup ~body:every_op_body ()
  in
  let base = Array.init 60 (fun i -> (i * 5) mod 3) in
  let snaps = ref [] in
  let rr = go ~snap:(fun s -> snaps := s :: !snaps) base in
  check cb "the plan crashed someone" true (rr.Engine.rr_result.Engine.total_crashes > 0);
  check cb "snapshots taken" true (List.length !snaps > 2);
  List.iter
    (fun s ->
      let pos = Engine.Snap.pos s in
      let decisions =
        Array.init (pos + 30) (fun i ->
            if i >= pos then i + 1 else if i < Array.length base then base.(i) else 0)
      in
      let resumed = go ~from:s decisions and replayed = go decisions in
      check cb (Printf.sprintf "resume@%d = replay (result)" pos) true
        (resumed.Engine.rr_result = replayed.Engine.rr_result);
      check cb (Printf.sprintf "resume@%d = replay (degrees)" pos) true
        (resumed.Engine.rr_degrees = replayed.Engine.rr_degrees))
    !snaps

(* The consult record is overwritten per instruction, so the stream is
   observed with its fields copied out.  Under `Auto and `Full (crash-free
   and under [Crash.random]) the hook sees the same stream.  Across a
   checkpoint resume the plan is wound forward over the journal's copies:
   [Crash.record_fired] copies the fields of every consult it fires on,
   winding included, so a resumed run reports the fired list of the run
   it replays — which a journal holding the shared record would break. *)
let test_on_op_stream () =
  let stream mode crash =
    let seen = ref [] in
    let on_op (i : Crash.op_info) =
      seen :=
        (i.Crash.pid, i.Crash.step, i.Crash.op_index, i.Crash.kind, Crash.cell_name i, Crash.note i,
         i.Crash.unsafe_wrt)
        :: !seen
    in
    let res =
      Engine.run ~mode ~on_op ~n:3 ~model:Memory.DSM ~sched:(Sched.random ~seed:9) ~crash:(crash ())
        ~setup:every_op_setup ~body:every_op_body ()
    in
    (res, List.rev !seen)
  in
  let none () = Crash.none and random () = Crash.random ~seed:5 ~rate:0.03 ~max_crashes:3 () in
  List.iter
    (fun (label, plan) ->
      let ((res, ops) as auto) = stream `Auto plan in
      check cb (label ^ ": auto = full") true (auto = stream `Full plan);
      check ci (label ^ ": one consult per instruction step") (List.length ops)
        (List.length (List.sort_uniq compare (List.map (fun (_, s, _, _, _, _, _) -> s) ops)));
      check cb (label ^ ": notes carry their payload") true
        (List.exists (fun (_, _, _, _, _, n, _) -> n = Some (Event.Custom "probe")) ops);
      check cb (label ^ ": the window was seen open") true
        (List.exists (fun (_, _, _, _, _, _, u) -> u <> []) ops);
      check cb (label ^ ": work happened") true (Engine.total_completed res > 0))
    [ ("crash-free", none); ("random", random) ];
  let fired_of ?from ?snap decisions =
    let fired = ref (fun () -> []) in
    let crash () =
      let plan, get = Crash.record_fired (Crash.random ~seed:3 ~rate:0.04 ~max_crashes:4 ()) in
      fired := get;
      plan
    in
    ignore
      (Engine.run_resumable ?from ?snap ~snap_gap:(if snap = None then 0 else 1) ~decisions ~n:3
         ~model:Memory.DSM ~crash ~setup:every_op_setup ~body:every_op_body ());
    List.map (fun f -> (f.Crash.f_pid, f.Crash.f_op_index, f.Crash.f_step, f.Crash.f_point)) (!fired ())
  in
  let base = Array.init 60 (fun i -> (i * 5) mod 3) in
  let snaps = ref [] in
  check cb "the plan fired" true (fired_of ~snap:(fun s -> snaps := s :: !snaps) base <> []);
  List.iter
    (fun s ->
      let pos = Engine.Snap.pos s in
      let decisions = Array.init (pos + 30) (fun i -> if i < Array.length base then base.(i) else 0) in
      check cb (Printf.sprintf "resume@%d: fired stream = replay" pos) true
        (fired_of ~from:s decisions = fired_of decisions))
    !snaps

(* ------------------------------------------------------------------ *)
(* Per-run fixed cost                                                  *)
(* ------------------------------------------------------------------ *)

(* Every cell of every registry lock, built for [n] processes, as the
   store enumerates them. *)
let registry_cell_names ~n (spec : Rme.Spec.t) =
  let names = ref [] in
  ignore
    (Engine.run ~n ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash:Crash.none
       ~setup:(fun ctx ->
         let lock = spec.Rme.Spec.make ctx in
         let mem = Engine.Ctx.memory ctx in
         names := List.init (Memory.cell_count mem) (fun i -> Cell.name (Memory.cell mem i));
         lock)
       ~body:(fun _ ~pid:_ -> ())
       ());
  !names

let test_registry_cell_names () =
  let all =
    List.map (fun (spec : Rme.Spec.t) -> (spec.Rme.Spec.key, registry_cell_names ~n:3 spec)) Rme.Spec.all
  in
  List.iter
    (fun (key, names) ->
      check ci (key ^ ": cell names distinct") (List.length names)
        (List.length (List.sort_uniq String.compare names)))
    all;
  let has key name =
    check cb (Printf.sprintf "%s has %s" key name) true (List.mem name (List.assoc key all))
  in
  List.iter (has "wr") [ "wr.tail"; "wr.pred[0]"; "wr.mine[1]"; "wr.state[2]" ];
  List.iter (has "sa-jjj")
    [ "sa-jjj.owner"; "sa-jjj.type[2]"; "sa-jjj.filter.pred[1]"; "sa-jjj.core.l1.n0.tail" ];
  List.iter (has "ba-jjj") [ "ba.l1.filter.tail"; "ba.l2.owner"; "ba.hint[2]" ];
  List.iter (has "tournament") [ "tournament.spin[2]"; "tournament.l0.a1.want[0]"; "tournament.l1.a0.turn" ];
  List.iter (has "jjj-sys") [ "jjj-sys.seq"; "jjj-sys.ann[2]" ];
  List.iter (has "wr-reclaim") [ "reclaim.snapshot[2][1]" ];
  (* Queue nodes are allocated during runs; their names follow the same
     scheme. *)
  let mem = Memory.create Memory.DSM ~n:3 in
  let reg = Rme_locks.Nodes.create_registry mem ~prefix:"wr" in
  let nodes = List.init 3 (fun owner -> Rme_locks.Nodes.fresh reg ~owner) in
  let n3 = List.nth nodes 2 in
  check Alcotest.string "node next" "wr.n1.next" (Cell.name (List.hd nodes).Rme_locks.Nodes.next);
  check Alcotest.string "node locked" "wr.n3.locked" (Cell.name n3.Rme_locks.Nodes.locked);
  check ci "node home" 2 n3.Rme_locks.Nodes.locked.Cell.home;
  check cb "rendered once, then memoised" true
    (Cell.name n3.Rme_locks.Nodes.locked == Cell.name n3.Rme_locks.Nodes.locked)

(* The crash consult identifies cells without naming them: a WR-Lock run
   under a crash plan consulted on every instruction leaves every
   numbered name (pred, mine, state, queue nodes) unrendered; only the
   fixed [wr.tail] was named at allocation. *)
let test_consult_renders_no_name () =
  let mem = ref None in
  let res =
    Engine.run ~n:3 ~model:Memory.CC ~sched:(Sched.random ~seed:4)
      ~crash:(Crash.random ~seed:4 ~rate:0.05 ~max_crashes:3 ())
      ~setup:(fun ctx ->
        mem := Some (Engine.Ctx.memory ctx);
        Rme_locks.Wr_lock.make ctx)
      ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests:2 pid)
      ()
  in
  check cb "the plan crashed someone" true (res.Engine.total_crashes > 0);
  let mem = Option.get !mem in
  let rendered =
    List.filter
      (fun i -> String.length (Memory.cell mem i).Cell.rendered > 0)
      (List.init (Memory.cell_count mem) Fun.id)
  in
  check cb "queue nodes were allocated" true (Memory.cell_count mem > 10);
  check (Alcotest.list Alcotest.string) "only the fixed name is rendered" [ "wr.tail" ]
    (List.map (fun i -> (Memory.cell mem i).Cell.rendered) rendered)

(* Minor words per call of [f], after one warm-up call. *)
let words_per_call ?(reps = 20) f =
  f ();
  let m0 = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. m0) /. float_of_int reps

(* A run whose bodies return at once costs its set-up: the engine record,
   the store and the lock's cells.  Cell names are not formatted unless
   read, so building the SA stack stays well under the 2.8k words it took
   when every name was formatted at allocation (1.5k on OCaml 5.1). *)
let test_noop_run_ceiling () =
  let make = (Rme.Spec.find_exn "sa-jjj").Rme.Spec.make in
  let w =
    words_per_call (fun () ->
        ignore
          (Engine.run ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash:Crash.none
             ~setup:make ~body:(fun _ ~pid:_ -> ()) ()))
  in
  check cb (Printf.sprintf "no-op sa-jjj run: %.0f words <= 1600" w) true (w <= 1600.0)

(* An explored run reuses its search's decision path and run buffers, so
   it pays for the engine run and little else (2.7k words on OCaml 5.1,
   4.8k when every run rebuilt its buffers and formatted its names). *)
let test_explored_run_ceiling () =
  let engine_runs = ref 0 in
  let search () =
    ignore
      (Rme_check.Explore.explore ~por:`Source ~max_steps:4_000
         ~stats:(fun s -> engine_runs := s.Rme_check.Explore.engine_runs)
         ~n:2 ~model:Memory.CC
         ~crash:(fun () -> Crash.none)
         ~setup:Rme_locks.Wr_lock.make
         ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests:1 pid)
         ~check:(fun r -> if r.Engine.cs_max > 1 then Some "ME" else None)
         ())
  in
  let words = words_per_call ~reps:1 search in
  let w = words /. float_of_int !engine_runs in
  check cb "the search ran" true (!engine_runs > 1_000);
  check cb (Printf.sprintf "wr-me-n2: %.0f words per explored run <= 4000" w) true (w <= 4000.0)

(* A run that ends deadlocked or timed out still holds suspended fibers;
   the engine discontinues them, so each live body unwinds exactly once
   (and a dropped fiber's stack is freed). *)
let test_stalled_runs_release_fibers () =
  let unwound = ref 0 in
  let guard f = Fun.protect ~finally:(fun () -> incr unwound) f in
  let setup ctx = Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0 in
  let deadlocked =
    Engine.run ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash:Crash.none ~setup
      ~body:(fun c ~pid:_ -> guard (fun () -> Api.spin_until c (Api.Eq 1)))
      ()
  in
  check cb "deadlocked" true deadlocked.Engine.deadlocked;
  check ci "both parked bodies unwound" 2 !unwound;
  let timed_out =
    Engine.run ~max_steps:50 ~n:3 ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash:Crash.none
      ~setup
      ~body:(fun _ ~pid:_ ->
        guard (fun () ->
            while true do
              Api.yield ()
            done))
      ()
  in
  check cb "timed out" true timed_out.Engine.timed_out;
  check ci "all five live bodies unwound" 5 !unwound;
  let rr =
    Engine.run_resumable ~max_steps:50 ~decisions:[||] ~n:2 ~model:Memory.CC
      ~crash:(fun () -> Crash.none)
      ~setup
      ~body:(fun c ~pid -> guard (fun () -> if pid = 0 then Api.spin_until c (Api.Eq 1) else Api.yield ()))
      ()
  in
  check cb "resumable run deadlocked" true rr.Engine.rr_result.Engine.deadlocked;
  (* p1 returned normally (one unwind of its own), p0 was parked. *)
  check ci "resumable: halted and parked bodies unwound" 7 !unwound

(* The pick rule of the round-robin scheduler, as a reference: the
   smallest runnable pid above the previous pick, wrapping to the
   smallest. *)
let round_robin_reference () =
  let cursor = ref 0 in
  fun runnable ->
    let above = List.filter (fun p -> p > !cursor) (Array.to_list runnable) in
    let chosen =
      match above with
      | [] -> Array.fold_left min runnable.(0) runnable
      | p :: ps -> List.fold_left min p ps
    in
    cursor := chosen;
    chosen

let test_round_robin_picks () =
  let rng = Random.State.make [| 11 |] in
  let sets =
    List.init 500 (fun _ ->
        let s = List.filter (fun _ -> Random.State.bool rng) [ 0; 1; 2; 3; 4 ] in
        Array.of_list (if s = [] then [ Random.State.int rng 5 ] else s))
  in
  let sched = Sched.round_robin () and reference = round_robin_reference () in
  List.iteri
    (fun step runnable ->
      check ci
        (Printf.sprintf "pick %d" step)
        (reference runnable)
        (Sched.pick sched ~runnable ~step))
    sets;
  check (Alcotest.list ci) "pinned start" [ 1; 2; 0; 1; 2 ]
    (let s = Sched.round_robin () in
     List.map
       (fun runnable -> Sched.pick s ~runnable ~step:0)
       [ [| 0; 1; 2 |]; [| 0; 1; 2 |]; [| 0; 2 |]; [| 0; 1 |]; [| 2 |] ]);
  let runnable = [| 0; 1; 2; 3 |] in
  let w = words_per_call ~reps:10_000 (fun () -> ignore (Sched.pick sched ~runnable ~step:0)) in
  check cb (Printf.sprintf "round-robin pick: %.2f words" w) true (w < 0.5)

(* ------------------------------------------------------------------ *)
(* Metrics.Hist                                                        *)
(* ------------------------------------------------------------------ *)

let test_hist_exact_small_values () =
  let h = Hist.create () in
  for v = 0 to 255 do
    Hist.add h v
  done;
  check ci "count" 256 (Hist.count h);
  check ci "min" 0 (Hist.min h);
  check ci "max" 255 (Hist.max h);
  (* Below 256 every value has its own bucket: quantiles are exact —
     rank ceil(0.5 * 256) = 128, whose sample is the value 127. *)
  check ci "p50" 127 (Hist.percentile h 0.5);
  check ci "p100" 255 (Hist.percentile h 1.0);
  check ci "p0+" 0 (Hist.percentile h 0.0)

let test_hist_relative_error () =
  let h = Hist.create () in
  let vals = List.init 1000 (fun i -> 1000 + (i * 997)) in
  List.iter (Hist.add h) vals;
  let sorted = Array.of_list (List.sort compare vals) in
  List.iter
    (fun q ->
      let rank = max 1 (int_of_float (ceil (q *. 1000.0))) in
      let exact = sorted.(rank - 1) in
      let approx = Hist.percentile h q in
      let err = abs (approx - exact) in
      check cb
        (Printf.sprintf "p%g within 1%% (exact %d, got %d)" (q *. 100.0) exact approx)
        true
        (float_of_int err <= 0.01 *. float_of_int exact))
    [ 0.5; 0.9; 0.99; 0.999; 1.0 ]

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () and all = Hist.create () in
  for i = 1 to 500 do
    Hist.add a (i * 3);
    Hist.add all (i * 3)
  done;
  for i = 1 to 500 do
    Hist.add b (i * 13);
    Hist.add all (i * 13)
  done;
  Hist.merge_into ~into:a b;
  check ci "count merged" (Hist.count all) (Hist.count a);
  check ci "sum merged" (Hist.sum all) (Hist.sum a);
  check ci "min merged" (Hist.min all) (Hist.min a);
  check ci "max merged" (Hist.max all) (Hist.max a);
  List.iter
    (fun q ->
      check ci
        (Printf.sprintf "p%g equal" (q *. 100.0))
        (Hist.percentile all q) (Hist.percentile a q))
    [ 0.5; 0.9; 0.99; 1.0 ]

let test_hist_misc () =
  let h = Hist.create () in
  check ci "empty percentile" 0 (Hist.percentile h 0.5);
  check ci "empty max" 0 (Hist.max h);
  Hist.add h (-5);
  check ci "negative clamps to 0" 0 (Hist.max h);
  Hist.add h 1_000_000_000;
  check ci "count" 2 (Hist.count h);
  check ci "huge value exact max" 1_000_000_000 (Hist.max h);
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Hist.nonzero h) in
  check ci "nonzero covers all samples" 2 total;
  List.iter
    (fun (lo, hi, _) -> check cb "bucket bounds ordered" true (lo <= hi))
    (Hist.nonzero h);
  Hist.clear h;
  check ci "clear" 0 (Hist.count h)

(* ------------------------------------------------------------------ *)
(* Explorer search-effort counters                                     *)
(* ------------------------------------------------------------------ *)

let explore_subject ?stats ~por which =
  let body c ~pid:_ =
    if Api.completed_requests () < 1 then begin
      Api.note (Event.Seg Event.Req_begin);
      Api.write c 1;
      Api.write c 2;
      Api.note (Event.Seg Event.Req_done)
    end
  in
  let setup ctx = Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0 in
  let check_fn (_ : Engine.result) = None in
  match which with
  | `Seq ->
      Rme_check.Explore.explore ?stats ~por ~n:3 ~model:Memory.CC
        ~crash:(fun () -> Crash.none)
        ~setup ~body ~check:check_fn ()
  | `Par ->
      Rme_check.Explore.explore_parallel ?stats ~por ~domains:2 ~n:3 ~model:Memory.CC
        ~crash:(fun () -> Crash.none)
        ~setup ~body ~check:check_fn ()

let test_explore_stats_sequential () =
  let got = ref None in
  let outcome = explore_subject ~stats:(fun s -> got := Some s) ~por:`Sleep `Seq in
  match !got with
  | None -> Alcotest.fail "stats callback never fired"
  | Some s ->
      check cb "counted at least one engine run per schedule" true
        (s.Rme_check.Explore.engine_runs >= outcome.Rme_check.Explore.runs);
      check cb "steps accumulated" true
        (s.Rme_check.Explore.engine_steps > s.Rme_check.Explore.engine_runs);
      check ci "no cache outside `Source" 0 s.Rme_check.Explore.cache_misses

let test_explore_stats_source_cache () =
  let got = ref None in
  ignore (explore_subject ~stats:(fun s -> got := Some s) ~por:`Source `Seq);
  match !got with
  | None -> Alcotest.fail "stats callback never fired"
  | Some s ->
      check cb "state cache consulted" true (s.Rme_check.Explore.cache_misses > 0)

let test_explore_stats_parallel () =
  let got = ref None in
  let outcome = explore_subject ~stats:(fun s -> got := Some s) ~por:`Sleep `Par in
  match !got with
  | None -> Alcotest.fail "stats callback never fired"
  | Some s ->
      check cb "parallel runs counted" true
        (s.Rme_check.Explore.engine_runs >= outcome.Rme_check.Explore.runs);
      check cb "parallel steps counted" true (s.Rme_check.Explore.engine_steps > 0)

let () =
  Alcotest.run "service"
    [
      ( "vec",
        [
          Alcotest.test_case "blit_prefix zero" `Quick test_vec_blit_prefix_zero;
          Alcotest.test_case "blit_prefix bounds" `Quick test_vec_blit_prefix_bounds;
          Alcotest.test_case "push through growth" `Quick test_vec_push_through_growth;
          Alcotest.test_case "unsafe_get after resize" `Quick test_vec_unsafe_get_after_resize;
        ] );
      ( "sink",
        [
          Alcotest.test_case "drop" `Quick test_sink_drop;
          Alcotest.test_case "ring wrap-around" `Quick test_sink_ring_wraparound;
          Alcotest.test_case "callback streams" `Quick test_sink_callback_streams;
          Alcotest.test_case "keep vs drop equivalence" `Quick test_keep_vs_drop_equivalence;
          Alcotest.test_case "ring is keep's suffix" `Quick test_ring_is_keep_suffix;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "fast/auto/full differential" `Quick test_fast_full_differential;
          Alcotest.test_case "fast rejects instrumentation" `Quick
            test_fast_rejects_instrumented_configs;
          Alcotest.test_case "api.step monotone" `Quick test_api_step_monotone;
          Alcotest.test_case "open-loop pacing" `Quick test_open_loop_pacing;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "constant instructions: words/step ceiling" `Quick
            test_constant_instr_alloc;
          Alcotest.test_case "read: words/step ceiling" `Quick test_read_alloc;
          Alcotest.test_case "write/cas/fas/note: words/step ceiling" `Quick
            test_memory_instr_alloc;
          Alcotest.test_case "consulted read: words/step ceiling" `Quick test_consulted_read_alloc;
          Alcotest.test_case "constant instructions: fast/auto/full identity" `Quick
            test_constant_instr_modes;
          Alcotest.test_case "constant instructions: resume = replay under crashes" `Quick
            test_constant_instr_resume;
          Alcotest.test_case "every instruction: fast/auto/full identity" `Quick test_every_op_modes;
          Alcotest.test_case "every instruction: resume = replay under crashes" `Quick
            test_every_op_resume;
          Alcotest.test_case "on_op stream: auto = full, resume = replay" `Quick test_on_op_stream;
        ] );
      ( "fixed-cost",
        [
          Alcotest.test_case "registry cell names" `Quick test_registry_cell_names;
          Alcotest.test_case "crash consult renders no name" `Quick test_consult_renders_no_name;
          Alcotest.test_case "no-op run: words ceiling" `Quick test_noop_run_ceiling;
          Alcotest.test_case "explored run: words ceiling" `Quick test_explored_run_ceiling;
          Alcotest.test_case "stalled runs release their fibers" `Quick
            test_stalled_runs_release_fibers;
          Alcotest.test_case "round-robin picks" `Quick test_round_robin_picks;
        ] );
      ( "hist",
        [
          Alcotest.test_case "exact small values" `Quick test_hist_exact_small_values;
          Alcotest.test_case "relative error" `Quick test_hist_relative_error;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "edge cases" `Quick test_hist_misc;
        ] );
      ( "explore-stats",
        [
          Alcotest.test_case "sequential" `Quick test_explore_stats_sequential;
          Alcotest.test_case "source cache" `Quick test_explore_stats_source_cache;
          Alcotest.test_case "parallel" `Quick test_explore_stats_parallel;
        ] );
    ]
