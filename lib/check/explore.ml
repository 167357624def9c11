open Rme_sim

type outcome = { runs : int; exhausted : bool; violation : (string * int list) option }

let pp_outcome ppf o =
  Fmt.pf ppf "runs=%d exhausted=%b%a" o.runs o.exhausted
    (Fmt.option (fun ppf (msg, tr) ->
         Fmt.pf ppf " VIOLATION %s at %a" msg Fmt.(Dump.list int) tr))
    o.violation

(* Effort counters, reported via the [stats] callback rather than inside
   [outcome]: outcomes are compared whole-record across domain counts (the
   byte-identical determinism contract), while engine step totals legally
   vary with checkpoint restarts and cache totals with the task split. *)
type search_stats = {
  engine_runs : int;
  engine_steps : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
}

let pp_search_stats ppf s =
  Fmt.pf ppf "engine runs=%d steps=%d; statecache hits=%d misses=%d evictions=%d" s.engine_runs
    s.engine_steps s.cache_hits s.cache_misses s.cache_evictions

(* Greedy minimisation of a violating decision vector: zero out decisions
   and truncate, keeping every change that still reproduces a violation.
   Zero is the canonical "lowest-pid" choice, so a minimised trace reads as
   "follow the default schedule except at these points".  Candidates are
   edited in place in one array; [reproduces arr len] judges the candidate
   made of the first [len] entries, trailing zeros (implied by the default
   path) already dropped. *)
let shrink_array ~reproduces trace =
  let arr = Array.of_list trace in
  let canon () =
    let k = ref (Array.length arr) in
    while !k > 0 && arr.(!k - 1) = 0 do
      decr k
    done;
    !k
  in
  if not (reproduces arr (canon ())) then trace
  else begin
    let changed = ref true in
    while !changed do
      changed := false;
      for i = Array.length arr - 1 downto 0 do
        if arr.(i) <> 0 then begin
          let old = arr.(i) in
          arr.(i) <- 0;
          if reproduces arr (canon ()) then changed := true else arr.(i) <- old
        end
      done
    done;
    Array.to_list (Array.sub arr 0 (canon ()))
  end

let shrink ~reproduces trace =
  shrink_array ~reproduces:(fun arr len -> reproduces (Array.to_list (Array.sub arr 0 len))) trace

(* Everything one run needs, bundled so the sequential explorer, the
   shrinker and the per-domain workers of the parallel explorer replay
   schedules identically.  [por] enables footprint collection for the
   sleep-set reduction; [crashy] marks the crash plan's possible victims
   (see Crash.por_class). *)
type 'a driver = {
  max_steps : int;
  record : bool;
  n : int;
  model : Memory.model;
  crash : unit -> Crash.t;
  abort : unit -> Abort.t;
  setup : Engine.Ctx.t -> 'a;
  body : 'a -> pid:int -> unit;
  check : Engine.result -> string option;
  por : bool;
  crashy : int -> bool;
  tally : Engine.result -> unit;
      (* fired once per engine execution (probes and shrink replays
         included) — feeds the [stats] callback's effort counters *)
}

(* Decide which reduction tier can actually run.  Both reduced tiers need
   (a) a schedule-robust crash plan — otherwise commuting two independent
   steps can move where a crash fires — and (b) no event recording:
   [check]s that read [result.events] can observe the order of independent
   steps, which the reduction deliberately does not preserve.  Aggregate
   statistics (counts, maxima, per-passage RMRs) are permutation-stable by
   the footprint oracle's construction.  When either condition fails the
   requested tier downgrades to `Off. *)
let por_setup ~por ~record ~crash ~abort =
  match por with
  | `Off -> (`Off, fun _ -> false)
  | (`Sleep | `Source) as tier -> (
      match (Crash.por_class (crash ()), Abort.por_class (abort ())) with
      | Crash.Robust victims, Crash.Robust ab_victims when not record ->
          (tier, fun pid -> List.mem pid victims || List.mem pid ab_victims)
      | _ -> (`Off, fun _ -> false))

(* The buffers one run records into and one frame of the search reads
   while it expands its children: the branching degree at every decision
   point, the per-choice footprints (flat, in decision order), the
   checkpoints a checkpointed run captured, and the frame's per-position
   bookkeeping.  A frame takes a set from its search's pool before its run
   and returns it on every exit — cache hit, miss or timed-out run — so a
   search allocates one set per level of its deepest path, not one per
   run.  The frame reads the run and keeps its bookkeeping in plain
   arrays, which its hot loops index directly; the bookkeeping arrays
   grow on demand, and each frame refills the slots it uses. *)
type bufs = {
  degrees : int Vec.t;  (* fresh runs record their degrees here ... *)
  fps : Footprint.t Vec.t;  (* ... and their footprints here *)
  some_fps : Footprint.t Vec.t option;  (* [Some fps], built once *)
  snaps : Engine.Snap.t Vec.t;  (* checkpointed runs: captures, ascending positions *)
  keep_snap : Engine.Snap.t -> unit;  (* [Vec.push snaps], built once *)
  mutable sk : int;  (* [base_at]'s cursor into [snaps] *)
  mutable len : int;  (* the last run's decision positions *)
  mutable deg : int array;  (* its degrees, the first [len] slots *)
  mutable fpa : Footprint.t array;  (* its footprints *)
  mutable offs : int array;  (* offs.(i): offset of position i's choices in [fpa] *)
  mutable dem : int array;  (* per own position: demanded sibling mask *)
  mutable acted : int array;  (* per own position: siblings already handled *)
  mutable inh : Footprint.t list array;  (* per own position: inherited sleepers *)
  mutable expl : Footprint.t list array;  (* per own position: explored siblings *)
}

(* How a node's run is executed: replayed from the root through
   {!Engine.run}, or resumed through {!Engine.run_resumable} from the
   deepest checkpoint on its path, capturing its own every [snap_gap]
   decision positions. *)
type backend = Fresh | Checkpointed of int

(* One search's run state.  [path] is the decision vector of the DFS node
   being run: a frame pushes a child's choices, recurses and truncates
   back; {!Sched.trace} reads the vector in place.  A violation converts it
   to the witness list once. *)
type 'a runner = {
  d : 'a driver;
  backend : backend;
  path : int Vec.t;
  pool : bufs Vec.t;
  mismatch : bool ref;  (* the last run took a decision outside its degree *)
  key : int array option ref;  (* the last run's state key, when asked for *)
  on_key : int array -> unit;
  race : Footprint.Race.scratch;
}

let runner ~backend d =
  let key = ref None in
  {
    d;
    backend;
    path = Vec.create ();
    pool = Vec.create ();
    mismatch = ref false;
    key;
    on_key = (fun k -> key := Some k);
    race = Footprint.Race.scratch ();
  }

let take_bufs r =
  if Vec.is_empty r.pool then
    let fps = Vec.create () in
    let snaps = Vec.create () in
    {
      degrees = Vec.create ();
      fps;
      some_fps = Some fps;
      snaps;
      keep_snap = Vec.push snaps;
      sk = 0;
      len = 0;
      deg = [||];
      fpa = [||];
      offs = [||];
      dem = [||];
      acted = [||];
      inh = [||];
      expl = [||];
    }
  else Vec.pop r.pool

(* A returned set drops its checkpoints: they belong to the node that
   captured them, and kept in the pool they would pin their runs' store
   images and journals until the set's next checkpointed run. *)
let give_bufs r b =
  if not (Vec.is_empty b.snaps) then Vec.reset b.snaps;
  Vec.push r.pool b

(* [a] when it has [m] slots, else a larger array filled with [x]. *)
let fit a m x = if Array.length a >= m then a else Array.make (max m (2 * Array.length a)) x

(* Point [path] at choice [c] of position [i], below a node whose own
   decision vector is the first [depth] entries: those, zeros up to [i]
   (the spine), then [c].  Between its children a node's [path] is its own
   vector, spine zeros and at most one last choice (the previous child's),
   so only that last entry needs dropping: siblings at one position cost
   O(1) each, not O(i). *)
let extend path ~depth i c =
  let len = Vec.length path in
  if len > depth then Vec.truncate path (min i (len - 1));
  for _ = Vec.length path to i - 1 do
    Vec.push path 0
  done;
  Vec.push path c

(* Run the schedule [r.path] into [b]: branching degrees, and footprints
   when [por].  Leaves in [r.mismatch] whether any decision fell outside
   its degree (an unfaithful replay — see Sched.trace; fresh runs only) and
   in [r.key] the state key at position [state_key_at] (the `Source tier's
   state-cache key), if the run got there.  A checkpointed run resumes from
   [base] and leaves its own checkpoints in [b.snaps]. *)
let run_node r ~por ~base ~state_key_at b =
  let d = r.d in
  r.mismatch := false;
  r.key := None;
  let res =
    match r.backend with
    | Fresh ->
        Vec.clear b.degrees;
        Vec.clear b.fps;
        let sched = Sched.trace ~mismatch:r.mismatch ~decisions:r.path ~record:b.degrees () in
        let res =
          Engine.run
            ?footprints:(if por then b.some_fps else None)
            ~footprint_crashy:d.crashy ~state_key_at ~on_state_key:r.on_key ~record:d.record
            ~max_steps:d.max_steps ~n:d.n ~model:d.model ~sched ~crash:(d.crash ())
            ~abort:(d.abort ()) ~setup:d.setup ~body:d.body ()
        in
        b.len <- Vec.length b.degrees;
        b.deg <- Vec.unsafe_data b.degrees;
        b.fpa <- Vec.unsafe_data b.fps;
        res
    | Checkpointed snap_gap ->
        Vec.clear b.snaps;
        b.sk <- 0;
        let rr =
          Engine.run_resumable ?from:base ~snap_gap ~snap:b.keep_snap ~record:d.record
            ~max_steps:d.max_steps ~por ~footprint_crashy:d.crashy ~state_key_at
            ~on_state_key:r.on_key ~abort:d.abort ~decisions:(Vec.to_array r.path) ~n:d.n
            ~model:d.model ~crash:d.crash ~setup:d.setup ~body:d.body ()
        in
        b.len <- Array.length rr.Engine.rr_degrees;
        b.deg <- rr.Engine.rr_degrees;
        b.fpa <- rr.Engine.rr_footprints;
        rr.Engine.rr_result
  in
  d.tally res;
  res

(* The checkpoint a child deviating at position [i] resumes from: the
   deepest one the node's run captured at or before [i], else the one the
   node itself resumed from.  The first eligible position is always
   captured, so a child never falls back past its parent's run. *)
let base_at b base i =
  (* [b.sk] counts the checkpoints at or before the last position asked
     for; a sweep asks in ascending order, so the cursor mostly moves
     forward, and only backs up when a later sweep restarts. *)
  while b.sk > 0 && Engine.Snap.pos (Vec.get b.snaps (b.sk - 1)) > i do
    b.sk <- b.sk - 1
  done;
  while b.sk < Vec.length b.snaps && Engine.Snap.pos (Vec.get b.snaps b.sk) <= i do
    b.sk <- b.sk + 1
  done;
  if b.sk = 0 then base else Some (Vec.get b.snaps (b.sk - 1))

(* Replay the decision vector [arr.(0 .. len-1)] from the root, without
   footprints. *)
let replay r arr len =
  Vec.clear r.path;
  for i = 0 to len - 1 do
    Vec.push r.path arr.(i)
  done;
  let b = take_bufs r in
  let res = run_node r ~por:false ~base:None ~state_key_at:(-1) b in
  give_bufs r b;
  res

(* A shrink candidate counts only if it reproduces the violation *and* its
   decisions all index real branches: a candidate whose degrees shifted
   takes different branches than the trace it would be reported as, so a
   "minimised" witness built from it would be unfaithful. *)
let faithful_reproduces r arr len =
  let res = replay r arr len in
  (not !(r.mismatch)) && r.d.check res <> None

(* Sleep-set helpers, written out so the per-position filters build no
   closure. *)
let rec asleep pid = function [] -> false | s :: rest -> Footprint.pid s = pid || asleep pid rest

(* [List.filter (fun s -> Footprint.independent s f) l]. *)
let rec indep f = function
  | [] -> []
  | s :: rest -> if Footprint.independent s f then s :: indep f rest else indep f rest

(* [indep f (l1 @ l2)], without building the concatenation. *)
let rec indep2 f l1 l2 =
  match l1 with
  | [] -> indep f l2
  | s :: rest -> if Footprint.independent s f then s :: indep2 f rest l2 else indep2 f rest l2

(* ------------------------------------------------------------------ *)
(* Source-set DPOR state                                               *)
(* ------------------------------------------------------------------ *)

(* Shared runtime of one search: the demand slots and the state cache.
   [slots] holds, per absolute decision position of the current DFS path,
   the bitmask of sibling choices some observed race demands at that
   position ([all_mask] = every choice, used when the demanded pid is not
   runnable there or the degree exceeds the mask width).  One frame owns
   each position at a time; a frame drains and clears its own positions
   before returning, and leaves demands for positions below [root] — an
   ancestor's, or outside a parallel task's subtree — to their owners (the
   parallel frontier is fully expanded under sleep-set filtering, so
   dropped below-root demands are already covered by sibling tasks).  Only
   the `Source tier deposits demands; the other tiers run with empty slots
   and no cache. *)
module Src = struct
  type summary = Footprint.t list option
  (* distinct footprints a subtree executed; [None] = overflowed the cap,
     treated as conflicting with everything *)

  type ctx = { slots : int Vec.t; root : int; cache : summary Statecache.t option }

  let ctx ~root cache = { slots = Vec.create (); root; cache }

  (* Mutable summary accumulator threaded from child frames to parents. *)
  type acc = { mutable fps : Footprint.t list; mutable universal : bool }

  let all_mask = -1

  let summary_cap = 64

  let fresh_acc () = { fps = []; universal = false }

  let note acc fp =
    if not acc.universal then
      if List.memq fp acc.fps then ()
      else if List.length acc.fps >= summary_cap then begin
        acc.universal <- true;
        acc.fps <- []
      end
      else acc.fps <- fp :: acc.fps

  let note_summary acc = function
    | None ->
        acc.universal <- true;
        acc.fps <- []
    | Some l -> List.iter (note acc) l

  let to_summary acc : summary = if acc.universal then None else Some acc.fps

  let ensure ctx len =
    while Vec.length ctx.slots < len do
      Vec.push ctx.slots 0
    done

  (* Demand choice [choice] at [pos]; [-1] (no such choice) demands all. *)
  let demand ctx ~pos ~deg ~choice =
    let cur = Vec.get ctx.slots pos in
    if cur <> all_mask then
      Vec.set ctx.slots pos
        (if choice >= 0 && deg <= 62 then cur lor (1 lsl choice) else all_mask)

  (* Scan a completed run of [len] decision positions for reversible races
     and deposit the resulting demands.  [choice j] is the decision the
     run took at position [j], [degree j] its branching degree and
     [fp_at j c] the footprint of choice [c] there. *)
  let scan ctx race ~n ~len ~choice ~degree ~fp_at =
    ensure ctx len;
    Footprint.Race.scan_with race ~n ~len
      ~executed:(fun j -> fp_at j (choice j))
      ~degree
      ~emit:(fun ~pos ~pid ->
        if pos >= ctx.root then begin
          let deg = degree pos in
          let c = ref (-1) in
          for i = deg - 1 downto 0 do
            if Footprint.pid (fp_at pos i) = pid then c := i
          done;
          demand ctx ~pos ~deg ~choice:!c
        end)

  let rec conflicts fk = function
    | [] -> false
    | f :: rest ->
        (Footprint.pid f <> Footprint.pid fk && not (Footprint.independent f fk))
        || conflicts fk rest

  (* Conservative demands a pruned (cache-hit) subtree owes the current
     prefix.  The stored exploration raised its cross-prefix race demands
     against *its* path, not ours, so re-raise them here from the summary:
     demand every sibling at every branching prefix position whose
     executed step conflicts with any footprint the subtree ran. *)
  let demand_prefix ctx ~choice ~degree ~fp_at ~depth (s : summary) =
    ensure ctx depth;
    for k = ctx.root to depth - 1 do
      let deg = degree k in
      if deg > 1 then begin
        let conflict =
          match s with None -> true | Some l -> conflicts (fp_at k (choice k)) l
        in
        if conflict then demand ctx ~pos:k ~deg ~choice:(-1)
      end
    done

  (* Sleep mask for the cache's subset rule; pids ≥ 62 cannot be encoded
     exactly, so caching is disabled for such systems upstream. *)
  let mask_of_sleep inh = List.fold_left (fun m f -> m lor (1 lsl Footprint.pid f)) 0 inh
end

(* ------------------------------------------------------------------ *)
(* The search frame                                                    *)
(* ------------------------------------------------------------------ *)

(* Depth-first exploration of the subtree of decision vectors rooted at the
   runner's current path — the one search algorithm behind every tier,
   backend and driver.  Each node runs its spine schedule (its decision
   vector, then the lowest runnable pid at every later point) and records
   the branching degree at every decision point; the children of a node
   are its vector with one later position [i] set to a sibling choice
   [1 .. degree-1] (choice 0 is the spine itself).

   The tier is the frame's demand policy — which siblings a node visits:

   - [`Off] visits every sibling.  So does every tier at a node whose run
     timed out: the permutation arguments below need complete runs, so
     such a node expands unpruned (its children start with empty sleep
     sets and judge their own runs) and poisons the state-cache adds of
     its whole path.
   - [`Sleep] visits every sibling whose pid is not asleep, position by
     position, each before the spine continues.  The search walks a run's
     decision points as a chain of nodes along the choice-0 spine; [inh]
     holds the footprints of processes put to sleep by the ancestors.  A
     sibling whose pid is asleep is skipped wholesale, because every run
     below it only reorders commuting steps of a run explored since the
     pid went to sleep.  Each explored sibling joins the sleep set of the
     later siblings and of the spine continuation — filtered at every
     hand-off by independence with the step actually taken (a dependent
     step wakes the sleeper).  A sleeping pid's pending step cannot change
     while it sleeps, so the stored footprint stays accurate.
   - [`Source] visits a sibling only when an observed reversible race
     ({!Footprint.Race}) demands it, sleep sets filtering as in [`Sleep]
     (a demanded-but-sleeping pid stays skipped: its reversal is the run
     the sleeper stands in for).  Demands land in the shared [ctx.slots]
     under the position they reverse; since descendants keep discovering
     races at a node's positions, the frame drains its own position range
     with fixpoint sweeps until no demand is pending.  A node whose state
     key hits the cache — same key, stored sleep mask ⊆ current — prunes
     its whole subtree after re-raising the stored summary's conservative
     prefix demands; a completed frame none of whose descendants timed out
     adds itself.  Visit order is demand-driven, so a reported witness may
     differ from [`Sleep]'s preorder-first one; exhaustion and
     violation-existence always agree.

   [collect], when given, receives each visited child (its decision vector
   and inherited sleep set) instead of the frame recursing into it: the
   parallel explorer's frontier expansion.  [take_run] reserves budget for
   one run and returns [false] once the budget is gone; [stop] is an
   external cancellation signal.  Both unwind the whole subtree at once.
   Returns [`Done] (subtree exhausted), [`Cut] (abandoned) or the first
   violation found. *)
let search r ~tier ~ctx ~collect ~take_run ~stop inh0 =
  let exception Halt in
  let exception Found of string * int list in
  let d = r.d and path = r.path in
  let caching = ctx.Src.cache <> None in
  let source = tier = `Source in
  let rec go base inh0 (note : Src.acc) =
    if stop () then raise Halt;
    if not (take_run ()) then raise Halt;
    let depth = Vec.length path in
    let b = take_bufs r in
    let res = run_node r ~por:d.por ~base ~state_key_at:(if caching then depth else -1) b in
    let key = !(r.key) in
    (match d.check res with Some msg -> raise (Found (msg, Vec.to_list path)) | None -> ());
    let len = b.len and deg = b.deg in
    let summarizable =
      if tier = `Off || res.Engine.timed_out then begin
        for i = depth to len - 1 do
          for c = 1 to deg.(i) - 1 do
            ignore (visit b base ~depth i c [] note)
          done
        done;
        (* Demands children deposited at our positions are subsumed by the
           unpruned expansion; clear them so they cannot leak upward. *)
        for i = depth to min len (Vec.length ctx.Src.slots) - 1 do
          Vec.set ctx.Src.slots i 0
        done;
        Src.note_summary note None;
        false
      end
      else begin
        b.offs <- fit b.offs (len + 1) 0;
        let offs = b.offs and fpa = b.fpa in
        offs.(0) <- 0;
        for i = 0 to len - 1 do
          offs.(i + 1) <- offs.(i) + deg.(i)
        done;
        let fp_at j c = fpa.(offs.(j) + c) in
        (* Read before any child extends [path]. *)
        let own = Vec.unsafe_data path in
        let choice j = if j < depth then own.(j) else 0 in
        let degree j = deg.(j) in
        let slept = Src.mask_of_sleep inh0 in
        let hit =
          match (ctx.Src.cache, key) with
          | Some c, Some k -> Statecache.find c ~key:k ~slept
          | _ -> None
        in
        match hit with
        | Some summary ->
            Src.demand_prefix ctx ~choice ~degree ~fp_at ~depth summary;
            Src.note_summary note summary;
            true
        | None ->
            let acc = Src.fresh_acc () in
            if source then begin
              Src.scan ctx r.race ~n:d.n ~len ~choice ~degree ~fp_at;
              for j = depth to len - 1 do
                Src.note acc (fp_at j 0)
              done
            end;
            let m = len - depth in
            b.dem <- fit b.dem m 0;
            b.acted <- fit b.acted m 0;
            b.inh <- fit b.inh m [];
            b.expl <- fit b.expl m [];
            let dem = b.dem and acted = b.acted and inh = b.inh and expl = b.expl in
            Array.fill dem 0 m 0;
            Array.fill acted 0 m 1 (* bit 0: the spine, covered by this run *);
            Array.fill inh 0 m [];
            Array.fill expl 0 m [];
            (* Drain demands addressed to this frame's positions out of the
               shared slots, eagerly: after the own scan and after every
               child returns.  A child's position range overlaps ours
               (absolute positions alias across paths), so a demand of ours
               left in the slots while a child runs would be consumed — and
               cleared — by the child against the wrong node. *)
            let drain () =
              for i = depth to min len (Vec.length ctx.Src.slots) - 1 do
                let v = Vec.get ctx.Src.slots i in
                if v <> 0 then begin
                  dem.(i - depth) <- dem.(i - depth) lor v;
                  Vec.set ctx.Src.slots i 0
                end
              done
            in
            drain ();
            if m > 0 then inh.(0) <- inh0;
            let summarizable = ref true in
            let first_sweep = ref true in
            let progress = ref true in
            while !progress do
              progress := false;
              for i = depth to len - 1 do
                let ix = i - depth in
                let di = deg.(i) in
                if di > 1 then begin
                  (* `Sleep demands every sibling once, in the first sweep,
                     by index: a 62-bit mask cannot name choices past 61. *)
                  let pending =
                    if not source then if !first_sweep then Src.all_mask else 0
                    else
                      let full = if di >= 62 then Src.all_mask else (1 lsl di) - 1 in
                      dem.(ix) land full land lnot acted.(ix)
                  in
                  if pending <> 0 then
                    for c = 1 to di - 1 do
                      if (not source) || pending land (1 lsl c) <> 0 then begin
                        acted.(ix) <- acted.(ix) lor (1 lsl c);
                        let fpc = fp_at i c in
                        if not (asleep (Footprint.pid fpc) inh.(ix)) then begin
                          progress := true;
                          let child_sleep = indep2 fpc inh.(ix) expl.(ix) in
                          let ok = visit b base ~depth i c child_sleep acc in
                          drain ();
                          summarizable := !summarizable && ok;
                          expl.(ix) <- fpc :: expl.(ix)
                        end
                      end
                    done
                end;
                (* Past position [i], the spine's inherited sleepers and the
                   first-sweep explored siblings survive iff independent of
                   the step the spine actually took. *)
                if !first_sweep && ix + 1 < m then
                  inh.(ix + 1) <- indep2 (fp_at i 0) inh.(ix) expl.(ix)
              done;
              first_sweep := false
            done;
            (if !summarizable && caching then
               match (ctx.Src.cache, key) with
               | Some c, Some k -> Statecache.add c ~key:k ~slept ~summary:(Src.to_summary acc)
               | _ -> ());
            Src.note_summary note (Src.to_summary acc);
            !summarizable
      end
    in
    Vec.truncate path depth;
    give_bufs r b;
    summarizable
  (* The child deviating with choice [c] at position [i], below the node
     whose run recorded [b]: recursed into, or handed to [collect]. *)
  and visit b base ~depth i c sleep note =
    extend path ~depth i c;
    match collect with
    | None -> go (base_at b base i) sleep note
    | Some f ->
        f (Vec.to_list path) sleep;
        true
  in
  match go None inh0 (Src.fresh_acc ()) with
  | _ -> `Done
  | exception Halt -> `Cut
  | exception Found (msg, tr) -> `Viol (msg, tr)

(* [exhausted] means the search covered the whole tree (up to runs the
   sleep-set reduction proved equivalent to explored ones): no truncation
   and no violation (a violation stops the search early by design). *)
let finish r ~shrink_violations ~runs ~truncated violation =
  let violation =
    match violation with
    | Some (msg, trace) when shrink_violations ->
        Some (msg, shrink_array ~reproduces:(faithful_reproduces r) trace)
    | v -> v
  in
  { runs; exhausted = (violation = None) && not truncated; violation }

(* Sleep masks index pids into an int; caching would be unsound past the
   word width, so it switches off for (absurdly) wide systems. *)
let cache_for ~n ~statecache ~cache_capacity =
  if n > 62 then None
  else
    match statecache with
    | Some _ as c -> c
    | None -> if cache_capacity > 0 then Some (Statecache.create ~capacity:cache_capacity ()) else None

let explore ?(max_runs = 100_000) ?(max_steps = 20_000) ?(shrink_violations = true)
    ?(record = false) ?(por = `Sleep) ?statecache ?(cache_capacity = 65_536)
    ?(abort = fun () -> Abort.none) ?stats ~n ~model ~crash ~setup ~body ~check () =
  let tier, crashy = por_setup ~por ~record ~crash ~abort in
  let runs_total = ref 0 in
  let steps_total = ref 0 in
  let tally =
    match stats with
    | None -> fun (_ : Engine.result) -> ()
    | Some _ ->
        fun (r : Engine.result) ->
          incr runs_total;
          steps_total := !steps_total + r.Engine.steps
  in
  let d =
    {
      max_steps;
      record;
      n;
      model;
      crash;
      abort;
      setup;
      body;
      check;
      por = tier <> `Off;
      crashy;
      tally;
    }
  in
  let r = runner ~backend:Fresh d in
  (* Hoisted so the [stats] callback can read the counters after the
     search, whichever tier ran. *)
  let cache =
    match tier with
    | `Source -> cache_for ~n ~statecache ~cache_capacity
    | `Off | `Sleep -> None
  in
  let ctx = Src.ctx ~root:0 cache in
  let runs = ref 0 in
  let truncated = ref false in
  let take_run () =
    if !runs >= max_runs then begin
      truncated := true;
      false
    end
    else begin
      incr runs;
      true
    end
  in
  let stop () = false in
  let dfs take_run =
    match search r ~tier ~ctx ~collect:None ~take_run ~stop [] with
    | `Done | `Cut -> None
    | `Viol v -> Some v
  in
  let violation =
    match tier with
    | `Off -> dfs take_run
    | `Sleep | `Source -> (
        (* Root probe: the very first run — the default schedule — executes
           footprint-free.  When it already violates, the whole search is
           that one run and the reduction machinery never pays its
           footprint overhead (the violation-bound case).  Otherwise the
           root re-runs with footprints inside the reduced search, without
           consuming budget a second time, so run counts match the
           un-probed search exactly. *)
        if not (take_run ()) then None
        else
          match d.check (replay r [||] 0) with
          | Some msg -> Some (msg, [])
          | None ->
              let first = ref true in
              dfs (fun () ->
                  if !first then begin
                    first := false;
                    true
                  end
                  else take_run ()))
  in
  let outcome = finish r ~shrink_violations ~runs:!runs ~truncated:!truncated violation in
  (match stats with
  | None -> ()
  | Some f ->
      let cache_hits, cache_misses, cache_evictions =
        match cache with
        | Some c -> (Statecache.hits c, Statecache.misses c, Statecache.evictions c)
        | None -> (0, 0, 0)
      in
      f
        {
          engine_runs = !runs_total;
          engine_steps = !steps_total;
          cache_hits;
          cache_misses;
          cache_evictions;
        });
  outcome

(* ------------------------------------------------------------------ *)
(* Parallel exploration                                                *)
(* ------------------------------------------------------------------ *)

(* The skeleton is the DFS preorder of the schedule tree, cut at the split
   frontier: a [Done] marker for each interior node the (sequential)
   expansion phase already ran, a [Task] for each unexpanded subtree (with
   the sleep set it inherits), or the [Viol]ation of an expanded node —
   always the last item, since expansion stops there.  Keeping the [Done]
   markers in position is what lets the settlement walk reconstruct the
   exact sequential run count. *)
type item = Done | Task of int list * Footprint.t list | Viol of string * int list

(* What a pool task reports back: how many nodes it visited (one per
   [take_run], exactly the sequential DFS's count for the same nodes), the
   first violation in its preorder if any, and whether it stopped early. *)
type task_result = { t_runs : int; t_viol : (string * int list) option; t_cut : bool }

let explore_parallel ?(max_runs = 100_000) ?(max_steps = 20_000) ?(shrink_violations = true)
    ?(record = false) ?(por = `Sleep) ?(cache_capacity = 65_536) ?domains
    ?(snap_gap = 4) ?(abort = fun () -> Abort.none) ?stats ~n ~model ~crash ~setup ~body ~check ()
    =
  let tier, crashy = por_setup ~por ~record ~crash ~abort in
  (* Effort counters accumulate atomically: the tally fires on whatever
     domain runs the task.  They feed only the [stats] callback, never the
     outcome, so the domain-count determinism contract is untouched. *)
  let runs_a = Atomic.make 0 in
  let steps_a = Atomic.make 0 in
  let cache_hits_a = Atomic.make 0 in
  let cache_misses_a = Atomic.make 0 in
  let cache_evictions_a = Atomic.make 0 in
  let tally =
    match stats with
    | None -> fun (_ : Engine.result) -> ()
    | Some _ ->
        fun (r : Engine.result) ->
          Atomic.incr runs_a;
          ignore (Atomic.fetch_and_add steps_a r.Engine.steps)
  in
  let d =
    {
      max_steps;
      record;
      n;
      model;
      crash;
      abort;
      setup;
      body;
      check;
      por = tier <> `Off;
      crashy;
      tally;
    }
  in
  (* Phases 0 and 1 and the final shrink run on this domain. *)
  let r = runner ~backend:Fresh d in
  let ndomains =
    match domains with Some x when x >= 1 -> x | Some _ -> 1 | None -> Pool.default_domains ()
  in
  (* ---- Phase 0: root probe (reduced tiers). ----
     The default schedule runs once, footprint-free.  A violation here is
     the sequential search's first run, so the whole exploration is that
     one run — reduction never pays its footprint overhead on
     violation-bound subjects.  Otherwise phase 1 re-runs the root with
     footprints; settlement charges that interior node once, as before,
     so run accounting is unchanged. *)
  let probe_viol =
    if tier = `Off || max_runs < 1 then None
    else
      let res = replay r [||] 0 in
      match d.check res with Some msg -> Some (msg, []) | None -> None
  in
  (* ---- Phase 1: adaptive frontier expansion (sequential). ----
     Runs interior nodes and replaces each by [Done :: its children] until
     there are enough tasks to keep every domain fed through imbalance
     (~8x domains), the tree is exhausted, a violation surfaces (the
     search ends at it — later items are dropped), or further splitting
     cannot matter because the budget would already be spent.  The search
     frame expands a node under the `Sleep policy — a superset of any
     source set — and collects its children as tasks. *)
  let expand_tier = if tier = `Off then `Off else `Sleep in
  let no_demands = Src.ctx ~root:0 None in
  let expand_one (prefix, sleep0) =
    Vec.clear r.path;
    List.iter (Vec.push r.path) prefix;
    let children = ref [] in
    let collect p s = children := Task (p, s) :: !children in
    match
      search r ~tier:expand_tier ~ctx:no_demands ~collect:(Some collect)
        ~take_run:(fun () -> true)
        ~stop:(fun () -> false)
        sleep0
    with
    | `Viol v -> `Viol v
    | `Done | `Cut -> `Children (List.rev !children)
  in
  let target_tasks = max 16 (8 * ndomains) in
  let count_tasks items =
    List.fold_left (fun k it -> match it with Task _ -> k + 1 | Done | Viol _ -> k) 0 items
  in
  let count_done items =
    List.fold_left (fun k it -> match it with Done -> k + 1 | Task _ | Viol _ -> k) 0 items
  in
  let rec grow level items =
    let ntasks = count_tasks items in
    let ndone = count_done items in
    if ntasks = 0 || level >= 64 || ndone + ntasks >= max_runs || ntasks >= target_tasks then items
    else begin
      (* Expand every task one level, left to right, keeping order — no
         item is ever silently dropped mid-level, so the skeleton (and
         with it the truncation point) is the same whatever the budget. *)
      let rec walk acc = function
        | [] -> (List.rev acc, false)
        | (Viol _ as it) :: _ -> (List.rev (it :: acc), true)
        | (Done as it) :: rest -> walk (it :: acc) rest
        | Task (p, s) :: rest -> (
            match expand_one (p, s) with
            | `Viol (msg, tr) -> (List.rev (Viol (msg, tr) :: acc), true)
            | `Children cs -> walk (List.rev_append (Done :: cs) acc) rest)
      in
      let items', found_viol = walk [] items in
      if found_viol then items' else grow (level + 1) items'
    end
  in
  let items =
    match probe_viol with
    | Some (msg, tr) -> [ Viol (msg, tr) ]
    | None -> grow 0 [ Task ([], []) ]
  in
  (* ---- Phase 2: the pool. ----
     Tasks carry their skeleton context: [done_before.(j)] counts the
     interior-node runs the sequential search performs before reaching
     task [j]'s subtree.  Budget is enforced by a leased lower bound
     instead of a shared counter: each worker publishes its own progress
     (a single-writer atomic slot, refreshed every 256 runs and at the
     end) and stops once
       own visits + done_before + earlier tasks' published progress
     reaches [max_runs] — at that point the sequential search provably
     truncates at or before the worker's current node, whatever the
     still-running earlier tasks turn out to do. *)
  let tasks =
    let acc = ref [] and dones = ref 0 in
    List.iter
      (function
        | Done -> incr dones
        | Task (p, s) -> acc := (p, s, !dones) :: !acc
        | Viol _ -> ())
      items;
    Array.of_list (List.rev !acc)
  in
  let progress = Array.map (fun _ -> Atomic.make 0) tasks in
  let lower_bound j =
    let _, _, done_before = tasks.(j) in
    let lb = ref done_before in
    for j' = 0 to j - 1 do
      lb := !lb + Atomic.get progress.(j')
    done;
    !lb
  in
  (* Idle task runners: a worker reuses one across its tasks, so a task
     starts with the buffer pools earlier tasks grew. *)
  let idle = Atomic.make [] in
  let rec acquire () =
    match Atomic.get idle with
    | [] -> runner ~backend:(Checkpointed snap_gap) d
    | r :: rest as l -> if Atomic.compare_and_set idle l rest then r else acquire ()
  in
  let rec release r =
    let l = Atomic.get idle in
    if not (Atomic.compare_and_set idle l (r :: l)) then release r
  in
  let run_task ~index:j ~stop (prefix, sleep, _done_before) =
    let u = ref 0 in
    let lb = ref (lower_bound j) in
    let take_run () =
      if !u + !lb >= max_runs then lb := lower_bound j;
      if !u + !lb >= max_runs then false
      else begin
        incr u;
        if !u land 255 = 0 then begin
          Atomic.set progress.(j) !u;
          lb := lower_bound j
        end;
        true
      end
    in
    (* Fresh demand slots and cache per task, rooted at the task prefix:
       the task set and each task's search are then independent of the
       domain count, so 1/2/4-domain outcomes stay identical. *)
    let r = acquire () in
    Vec.clear r.path;
    List.iter (Vec.push r.path) prefix;
    let cache =
      match tier with
      | `Source -> cache_for ~n ~statecache:None ~cache_capacity
      | `Off | `Sleep -> None
    in
    let result =
      search r ~tier ~ctx:(Src.ctx ~root:(List.length prefix) cache) ~collect:None ~take_run ~stop
        sleep
    in
    release r;
    (match cache with
    | Some c ->
        ignore (Atomic.fetch_and_add cache_hits_a (Statecache.hits c));
        ignore (Atomic.fetch_and_add cache_misses_a (Statecache.misses c));
        ignore (Atomic.fetch_and_add cache_evictions_a (Statecache.evictions c))
    | None -> ());
    Atomic.set progress.(j) !u;
    match result with
    | `Done -> { t_runs = !u; t_viol = None; t_cut = false }
    | `Cut -> { t_runs = !u; t_viol = None; t_cut = true }
    | `Viol (msg, tr) -> { t_runs = !u; t_viol = Some (msg, tr); t_cut = false }
  in
  let results =
    Pool.map ?domains ~hit:(fun r -> r.t_cut || r.t_viol <> None) ~tasks run_task
  in
  (* ---- Phase 3: settlement. ----
     Walk the skeleton in DFS preorder, charging each item its exact
     sequential cost, and stop exactly where the sequential search stops:
     at the budget, or at the first violation it can afford.  The pool's
     order-respecting cancellation guarantees every task before the
     decisive one ran to completion, so its [t_runs] is the exact subtree
     size. *)
  let truncated_outcome = { runs = max_runs; exhausted = false; violation = None } in
  let rec settle acc ti = function
    | [] -> { runs = acc; exhausted = true; violation = None }
    | _ :: _ when acc >= max_runs -> truncated_outcome
    | Done :: rest -> settle (acc + 1) ti rest
    | Viol (msg, tr) :: _ -> { runs = acc + 1; exhausted = false; violation = Some (msg, tr) }
    | Task _ :: rest -> (
        match results.(ti) with
        | None ->
            (* Unreachable: a skipped task sits behind a decisive earlier
               one, and the walk stops there. *)
            failwith "Explore.explore_parallel: settlement reached a cancelled task"
        | Some r -> (
            match r.t_viol with
            | Some v ->
                if acc + r.t_runs <= max_runs then
                  { runs = acc + r.t_runs; exhausted = false; violation = Some v }
                else truncated_outcome
            | None ->
                if r.t_cut then truncated_outcome (* cut implies acc + t_runs >= max_runs *)
                else if acc + r.t_runs > max_runs then truncated_outcome
                else settle (acc + r.t_runs) (ti + 1) rest))
  in
  let outcome = settle 0 0 items in
  let outcome =
    match outcome.violation with
    | Some (msg, tr) when shrink_violations ->
        { outcome with violation = Some (msg, shrink_array ~reproduces:(faithful_reproduces r) tr) }
    | Some _ | None -> outcome
  in
  (match stats with
  | None -> ()
  | Some f ->
      f
        {
          engine_runs = Atomic.get runs_a;
          engine_steps = Atomic.get steps_a;
          cache_hits = Atomic.get cache_hits_a;
          cache_misses = Atomic.get cache_misses_a;
          cache_evictions = Atomic.get cache_evictions_a;
        });
  outcome
