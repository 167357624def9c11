(** Crash plans: when and where processes fail.

    The paper's failure model (§2.2) allows a process to crash at any point,
    losing its private state while shared (NVRAM) state persists.  A crash
    plan decides, for every instruction a process is about to execute,
    whether it crashes immediately {e before} or {e after} it — "after"
    applies the instruction to memory but loses its result, which is exactly
    the failure mode of the sensitive FAS of Algorithm 2.  Plans can also
    fire {e asynchronous} crashes that hit a process while it is parked
    (waiting on a spin), and batch crashes (§7.1).

    Beyond the paper's per-process model, plans can fire {e system-wide}
    crashes — the failure model of Jayanti–Jayanti–Joshi (arXiv
    2302.00748): every process's continuation is erased at one engine
    step, NVRAM cells persist, and all processes restart through their
    recovery sections ({!system_at}, {!system_random}, {!system_storm}).

    Plans are stateful values; build a fresh plan for every run. *)

type point = Before | After

type decision = No_crash | Crash of point

(** What a plan sees about the instruction about to execute.

    The engine hands plans and [on_op] hooks one record per run,
    overwritten for every instruction: a record is valid during the call
    only — copy the fields (or the record) to retain them. *)
type op_info = {
  mutable pid : int;
  mutable step : int;  (** global step counter *)
  mutable op_index : int;
      (** per-process instruction counter, counted from the start of the
          run.  The counter is {e not} reset by a crash: it keeps
          incrementing across restarts, so the [nth] of {!at_op} addresses
          one absolute point in the process's whole execution, restarts
          included (pinned by the "op_index continues across restarts"
          test in [test/test_sim.ml]). *)
  mutable kind : Api.kind;  (** [Api.kind_of_op op] *)
  mutable op : Api.op;
      (** the instruction itself; {!cell} and {!note} read it.  The engine
          stores the op the process performed rather than fields derived
          from it: one pointer the instruction just allocated is the
          cheapest write into a long-lived record. *)
  mutable unsafe_wrt : int list;
      (** ids of the locks whose sensitive window ({!Api.fas_open_unsafe} …
          {!Api.write_close_unsafe}) the process has open as this
          instruction is about to execute — the engine's view {e before}
          the instruction is applied.  Non-empty means "crashing this
          process right now is an unsafe failure" (§2.2), which is what an
          execution-aware adversary needs to aim at the window. *)
}

val cell : op_info -> Cell.t option
(** The touched cell, if any ({!Api.cell_of_op}).  Its name is not
    rendered for the consult: a plan that matches on names calls
    {!cell_name} (or {!Cell.name}) only on the ops it tests, so the
    consult path of a run formats no name nobody reads. *)

val note : op_info -> Event.note option
(** The payload of a [Note] instruction. *)

val cell_name : op_info -> string option
(** The name of the touched cell, rendered on demand ({!Cell.name}). *)

type t

(** How a plan's firing decisions relate to the schedule, consulted by the
    explorer's partial-order reduction ({!Rme_check.Explore}).

    [Robust victims]: every decision is a pure function of the observed
    process's own instruction history (its op indices, kinds, cells, notes),
    so commuting independent steps of {e other} processes cannot move a
    crash, and only the pids in [victims] can ever be struck.

    [Sensitive]: decisions read schedule-dependent state — the global step
    counter ({!async_at}, {!batch}, {!storm}), a shared RNG consumed in
    cross-process op order ({!random} over several pids, {!fas_gap},
    {!target_holder}, {!target_window}), or similar.  Reordering even
    commuting steps can change where such a plan fires, so the reduction
    disables itself. *)
type por_class = Robust of int list | Sensitive

val label : t -> string

val on_op : t -> op_info -> decision

val async : t -> step:int -> int list
(** Pids to crash right now, whatever they are doing (even parked). *)

val system : t -> step:int -> bool
(** [true] to crash the {e whole system} right now: every process's
    continuation is discarded (parked spinners included), shared memory
    persists, and every process restarts its body.  Consulted once per
    engine iteration, after the per-process [async] crashes. *)

val por_class : t -> por_class

(** {1 Constructors} *)

val none : t

val at_op : pid:int -> nth:int -> point -> t
(** Crash [pid] at its [nth] instruction (0-based, counted across restarts). *)

val on_kind : pid:int -> kind:Api.kind -> occurrence:int -> point -> t
(** Crash [pid] around the [occurrence]-th (0-based) instruction of [kind]
    it executes.  [on_kind ~pid:3 ~kind:Fas ~occurrence:0 After] is "p3
    crashes immediately after its first FAS" — the Figure 1 scenario. *)

val on_cell : pid:int -> cell:string -> occurrence:int -> point -> t
(** Crash [pid] around its [occurrence]-th access to any cell named [cell]. *)

val on_custom_note : pid:int -> tag:string -> occurrence:int -> point -> t
(** Crash [pid] around its [occurrence]-th [Custom tag] note. *)

val random : seed:int -> rate:float -> max_crashes:int -> ?pids:int list -> unit -> t
(** Each instruction of an eligible process crashes with probability [rate]
    (point chosen uniformly Before/After), until [max_crashes] crashes have
    fired in total.  The budget keeps histories fair (finitely many crashes
    per super-passage, as SF requires). *)

val fas_gap :
  seed:int -> rate:float -> max_crashes:int -> ?cell_suffix:string -> unit -> t
(** Crash any process immediately after a FAS on a cell whose name ends with
    [cell_suffix] (default ["filter.tail"]), with probability [rate] per
    such FAS, up to [max_crashes] total — i.e. generate {e unsafe} failures
    with respect to the filter locks.  This is the adversary of the
    adaptivity experiments: the number of crashes fired is exactly the F of
    Theorems 5.17–5.19. *)

val async_at : (int * int) list -> t
(** [async_at [(step, pid); ...]]: crash [pid] at the first engine iteration
    whose global step is ≥ [step].  Reaches parked processes. *)

val batch : step:int -> pids:int list -> t
(** A batch failure (§7.1): all [pids] crash simultaneously at [step]. *)

val every_nth_passage : pid:int -> period:int -> max_crashes:int -> t
(** Crash [pid] just after the [Req_begin] of every [period]-th passage —
    a steady per-process failure pulse used by the adaptivity sweeps. *)

(** {1 Adaptive adversaries}

    Execution-observing plans: rather than firing at fixed sites or blindly
    at random, they watch the milestones and window state carried by
    {!op_info} and aim where the algorithms are most exposed.  All are
    seeded and deterministic (given a deterministic scheduler), and all
    decide through [on_op] only — never asynchronously — so every crash
    they fire can be replayed exactly by an {!at_op} plan (see
    {!record_fired}). *)

val target_holder : ?lock:int -> seed:int -> rate:float -> max_crashes:int -> unit -> t
(** Crash processes only while they are inside a lock's acquire→release
    span — from [Lock_enter] to [Lock_released], i.e. the acquisition hot
    path, the critical section, and the handoff — with probability [rate]
    per instruction (point uniformly Before/After), up to [max_crashes].
    [lock] restricts the tracking to one lock id (default: any registered
    lock).  This is the "kill the holder" adversary: it concentrates
    failures on queue surgery, ownership transfer, and the sensitive FAS
    that all live inside the span. *)

val target_window : seed:int -> rate:float -> max_crashes:int -> unit -> t
(** Crash a process with probability [rate] per instruction it executes
    {e while one of its sensitive windows is open} ([unsafe_wrt] ≠ []) —
    every crash this plan fires is an unsafe failure.  Crashes strike
    [Before] the instruction so they always land strictly inside the
    window.  This is the worst-case adversary of Theorem 4.2 (weak locks
    may break) and the failure currency of Theorems 5.17–5.19. *)

val repeat_offender : victim:int -> gap:int -> times:int -> t
(** Failures during recovery (§2.2 allows them; most RME papers' hard
    case): crash [victim] just after the [Req_begin] of its first passage,
    then re-crash it [gap] instructions into {e every} restarted passage,
    [times] crashes in total.  Deterministic — no RNG.  A recoverable lock
    must absorb the whole pulse train and still satisfy the victim's
    request once the budget is exhausted. *)

val storm :
  seed:int ->
  rate:float ->
  max_crashes:int ->
  gap:int ->
  ?backoff:float ->
  ?pids:int list ->
  unit ->
  t
(** Like {!random} but with a cooldown schedule: after each crash, no
    further crash fires for [gap] global steps, and each firing multiplies
    the current gap by [backoff] (default 1.0 — constant gap; must be
    ≥ 1).  Models failure bursts that thin out over time, the regime where
    BA-Lock's level budgets are meant to recover. *)

(** {1 System-wide crashes}

    The Jayanti–Jayanti–Joshi model (arXiv 2302.00748): at one engine
    iteration {e every} process loses its continuation simultaneously —
    running, ready, and parked processes alike — while NVRAM persists;
    everyone then restarts through its recovery section.  All system plans
    decide on the global step counter, so they are all [Sensitive]: the
    explorer's partial-order reduction disables itself under them. *)

val system_at : step:int -> t
(** One system-wide crash, at the first engine iteration whose global step
    is ≥ [step]. *)

val system_random : seed:int -> rate:float -> max_crashes:int -> unit -> t
(** Each engine iteration crashes the whole system with probability
    [rate], up to [max_crashes] system crashes in total. *)

val system_storm :
  seed:int -> rate:float -> max_crashes:int -> gap:int -> ?backoff:float -> unit -> t
(** Like {!system_random} but with {!storm}'s cooldown schedule: after
    each system crash no further one fires for the current gap (initially
    [gap] global steps), and each firing multiplies the gap by [backoff]
    (default 1.0; must be ≥ 1) — correlated datacenter-style failure
    bursts that thin out over time. *)

(** {1 Recording and replay} *)

type fired = {
  f_pid : int;
      (** the struck pid; [-1] for a system-wide crash (all pids) *)
  f_op_index : int;
      (** absolute per-process index — the [nth] of {!at_op}; [-1] when
          [f_async] (asynchronous crashes strike between instructions) *)
  f_step : int;  (** global step at which the crash fired *)
  f_point : point;  (** [Before] for asynchronous and system crashes *)
  f_async : bool;
      (** [true] iff the crash fired through [async] or [system] rather
          than [on_op] — replayed by step, not by op index *)
}
(** One crash actually fired by a plan, identified by the coordinates that
    make it deterministically replayable. *)

val record_fired : t -> t * (unit -> fired list)
(** [record_fired plan] wraps [plan] so {e every} crash it fires is
    captured — through [on_op], [async] ([f_async] with the victim's pid)
    and [system] ([f_async] with [f_pid = -1]) alike; the returned thunk
    lists them in firing order.  The record is complete for any plan, so
    {!replay_fired} reproduces any adversary's run. *)

val replay_fired : fired list -> t
(** The deterministic composite of a recorded run: one {!at_op} per
    synchronous crash, one {!async_at} per asynchronous one, one
    {!system_at} per system-wide one, unioned.  Under the same scheduler
    decisions it re-injects exactly the same failures — the bridge from
    adversarial discovery to a fixed, shrinkable witness. *)

val all : t list -> t
(** Union of plans; the first [on_op] crash decision wins, [async] pids are
    concatenated, and [system] fires if any member does (every member is
    consulted each iteration, so stateful plans keep winding). *)
