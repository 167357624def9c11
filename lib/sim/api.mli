(** The instruction set available to simulated processes.

    Lock implementations and process bodies call these functions; each one
    performs an effect that suspends the process and hands control to the
    engine, which applies the instruction to shared memory, charges RMRs,
    and may inject a crash immediately before or after it (§2.2 of the
    paper).

    The functions in this module must only be called from inside a process
    body running under {!Engine.run}. *)

(** Condition for local-spin waiting.  [Pred] carries an arbitrary
    host-level predicate, re-evaluated by the engine on every wake. *)
type cond = Eq of int | Ne of int | Ge of int | Pred of (int -> bool)

val cond_holds : cond -> int -> bool

(** The engine-side form of a suspended instruction.  Every instruction
    answers an [int]: a unit instruction answers 0, a boolean one 0 for
    [false] and 1 for [true] — the representations of [()], [false] and
    [true], which is what lets {!write}, {!cas}, {!poll_abort} and the
    other unit and boolean instructions return the answer in tail
    position — and the others their value.  Declared before {!kind},
    which shares seven constructor names: an [Api.Read] with no expected
    type is the kind, so annotate where an op is meant
    ([let op : Api.op = Api.Read c]). *)
type op =
  | Read of Cell.t
  | Write of Cell.t * int
  | Cas of Cell.t * int * int  (** cell, expected, new value; answers 1 iff swapped *)
  | Fas of Cell.t * int
  | Fas_open_unsafe of int * Cell.t * int
      (** FAS that opens lock [id]'s sensitive window (the WR-Lock append,
          Algorithm 2 line "FAS(tail, mine\[i\])"). *)
  | Fas_persist of Cell.t * int * Cell.t
      (** Atomic FAS-and-persist-result, the stronger instruction used by the
          [kport] substitution (DESIGN.md S1). *)
  | Write_close_unsafe of int * Cell.t * int
      (** Write that closes lock [id]'s sensitive window (persisting the FAS
          result into [pred]). *)
  | Faa of Cell.t * int
  | Spin of Cell.t * cond
  | Spin_abortable of Cell.t * cond
      (** Like [Spin] but also completes — with the condition possibly
          still false — when the spinning process carries a pending abort
          signal.  Follow with {!poll_abort} to tell the two wake reasons
          apart. *)
  | Note of Event.note
  | Get_done
  | Get_step
  | Poll_abort  (** answers 1 iff an abort signal is pending *)
  | Yield

(** Static classification of instructions, visible to crash plans and
    tracing. *)
type kind = Read | Write | Cas | Fas | Faa | Spin | Note | Nop

val pp_kind : kind Fmt.t

exception Abort_signal
(** Raised by abortable lock [acquire] code when it observes a pending
    abort signal (via {!poll_abort} after {!spin_abortable}); caught by the
    harness body, which then runs the lock's [try_abort] protocol.  Never
    raised by the engine itself. *)

val kind_of_op : op -> kind

val cell_of_op : op -> Cell.t option
(** The cell the instruction touches (its primary cell for
    [Fas_persist]).  Returns the cell's own [some] field, so no option
    is allocated. *)

type _ Effect.t += Instr : op -> int Effect.t
(** The single effect simulated processes perform; handled by {!Engine}. *)

(** {1 Instructions} *)

val read : Cell.t -> int

val write : Cell.t -> int -> unit

val cas : Cell.t -> expect:int -> value:int -> bool
(** Returns [true] iff the swap happened. *)

val fas : Cell.t -> int -> int
(** Atomically stores the argument and returns the previous contents. *)

val faa : Cell.t -> int -> int
(** Atomically adds and returns the previous contents. *)

val fas_open_unsafe : lock:int -> Cell.t -> int -> int
(** Like {!fas} but marks the executing process as inside lock [lock]'s
    sensitive window: a crash from immediately after this instruction until
    the matching {!write_close_unsafe} is an {e unsafe failure} with respect
    to that lock (Definition 3.4). *)

val write_close_unsafe : lock:int -> Cell.t -> int -> unit
(** Like {!write} but closes the sensitive window opened by
    {!fas_open_unsafe}: a crash after this instruction is safe again. *)

val fas_persist : Cell.t -> int -> dst:Cell.t -> unit
(** Atomically [dst := FAS(cell, v)].  Not available on commodity hardware;
    used only by the [kport] base-lock substitution, see DESIGN.md S1. *)

val spin_until : Cell.t -> cond -> unit
(** Local-spin wait until the cell satisfies [cond].  The engine parks the
    process and wakes it when a write makes the condition true; RMR
    accounting charges the initial fetch and one re-fetch per wake, which is
    the standard O(1)-per-handoff cost of local spinning. *)

val spin_abortable : Cell.t -> cond -> unit
(** Local-spin wait that an abort signal can interrupt: parks like
    {!spin_until} but additionally wakes (and returns) when the engine has
    flagged the process for abort.  On return the condition may still be
    false — call {!poll_abort} and raise {!Abort_signal} to hand control to
    the abort protocol.  RMR accounting is identical to {!spin_until}. *)

val poll_abort : unit -> bool
(** [true] iff the calling process carries a pending (unresolved) abort
    signal.  Free: no RMRs, but a scheduling point. *)

val note : Event.note -> unit
(** Emit a history event (free: no RMRs, but it is a scheduling point). *)

val completed_requests : unit -> int
(** Number of satisfied requests of the calling process, tracked by the
    engine as recoverable application state (it survives crashes). *)

val step : unit -> int
(** The current global engine step — simulated time.  Free: no RMRs, but a
    scheduling point.  Open-loop workload generators pace arrivals against
    it ([while Api.step () < due do Api.yield () done]). *)

val yield : unit -> unit
(** A pure scheduling point: lets the scheduler interleave (and the crash
    plan strike) between two local computations. *)
