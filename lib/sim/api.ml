type cond = Eq of int | Ne of int | Ge of int | Pred of (int -> bool)

let cond_holds c v =
  match c with Eq x -> v = x | Ne x -> v <> x | Ge x -> v >= x | Pred p -> p v

(* Declared before [kind], whose constructors share seven of its names: an
   [Api.Read] with no expected type is the kind, an op is told apart by
   its type. *)
type op =
  | Read of Cell.t
  | Write of Cell.t * int
  | Cas of Cell.t * int * int
  | Fas of Cell.t * int
  | Fas_open_unsafe of int * Cell.t * int
  | Fas_persist of Cell.t * int * Cell.t
  | Write_close_unsafe of int * Cell.t * int
  | Faa of Cell.t * int
  | Spin of Cell.t * cond
  | Spin_abortable of Cell.t * cond
  | Note of Event.note
  | Get_done
  | Get_step
  | Poll_abort
  | Yield

type kind = Read | Write | Cas | Fas | Faa | Spin | Note | Nop

let pp_kind ppf k =
  Fmt.string ppf
    (match k with
    | Read -> "read"
    | Write -> "write"
    | Cas -> "cas"
    | Fas -> "fas"
    | Faa -> "faa"
    | Spin -> "spin"
    | Note -> "note"
    | Nop -> "nop")

exception Abort_signal

let kind_of_op : op -> kind = function
  | Read _ -> Read
  | Write _ | Write_close_unsafe _ -> Write
  | Cas _ -> Cas
  | Fas _ | Fas_open_unsafe _ | Fas_persist _ -> Fas
  | Faa _ -> Faa
  | Spin _ | Spin_abortable _ -> Spin
  | Note _ -> Note
  | Get_done | Get_step | Poll_abort | Yield -> Nop

(* Each cell carries its own [Some c], so [Crash.cell] and the op trace
   read the touched cell without boxing an option. *)
let cell_of_op : op -> Cell.t option = function
  | Read c
  | Write (c, _)
  | Cas (c, _, _)
  | Fas (c, _)
  | Fas_open_unsafe (_, c, _)
  | Fas_persist (c, _, _)
  | Write_close_unsafe (_, c, _)
  | Faa (c, _)
  | Spin (c, _)
  | Spin_abortable (c, _) ->
      c.some
  | Note _ | Get_done | Get_step | Poll_abort | Yield -> None

type _ Effect.t += Instr : op -> int Effect.t

(* The engine answers a unit instruction with 0 and a boolean one with 0
   or 1: the representations of [()], [false] and [true].  So these
   instructions return the answer retyped, not converted: a conversion
   after [Effect.perform] keeps the caller's frame live across the
   suspension, and resuming into that frame cost 20-30 ns per step (a
   one-process yield, write or note loop, OCaml 5.1), while a perform in
   tail position resumes straight into the caller. *)
let perform_unit op : unit = Obj.magic (Effect.perform (Instr op))

let perform_bool op : bool = Obj.magic (Effect.perform (Instr op))

let read c = Effect.perform (Instr (Read c))

let write c v = perform_unit (Write (c, v))

let cas c ~expect ~value = perform_bool (Cas (c, expect, value))

let fas c v = Effect.perform (Instr (Fas (c, v)))

let faa c v = Effect.perform (Instr (Faa (c, v)))

let fas_open_unsafe ~lock c v = Effect.perform (Instr (Fas_open_unsafe (lock, c, v)))

let write_close_unsafe ~lock c v = perform_unit (Write_close_unsafe (lock, c, v))

let fas_persist c v ~dst = perform_unit (Fas_persist (c, v, dst))

let spin_until c cond = perform_unit (Spin (c, cond))

let spin_abortable c cond = perform_unit (Spin_abortable (c, cond))

(* The argument-free instructions perform one shared effect value each: an
   [Instr Yield] built per call would be a fresh block per step. *)
let poll_abort_instr = Instr Poll_abort

let get_done_instr = Instr Get_done

let get_step_instr = Instr Get_step

let yield_instr = Instr Yield

let poll_abort () : bool = Obj.magic (Effect.perform poll_abort_instr)

let note n = perform_unit (Note n)

let completed_requests () = Effect.perform get_done_instr

let step () = Effect.perform get_step_instr

let yield () : unit = Obj.magic (Effect.perform yield_instr)
