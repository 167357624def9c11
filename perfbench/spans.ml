(* Spans rebuilt from the engine's event stream, for the traced run.

   The benchmark feeds every event of a traced engine run to [on_event]
   (through an {!Rme_sim.Event.Sink.callback}) and every instruction to
   [on_op] (through {!Rme_sim.Engine.run}'s [on_op] hook).  Time is
   simulated: a span starts and ends at global engine steps.

   A request is identified by (pid, request index), the index being the
   super-passage the engine reports with each note.  Its span runs from
   the previous [Req_done] of the same process to its own [Req_done] and
   has these children:
   - [pacing]: previous [Req_done] to [Req_begin];
   - [lock.entry]: [Req_begin] to [Cs_begin];
   - [cs]: [Cs_begin] to [Cs_end];
   - [lock.exit]: [Cs_end] to [Req_done];
   - one span per lock id, [Lock_enter] to [Lock_released], nested under
     the innermost lock span still open in the same process (or under the
     request span).
   A crash closes the crashed process's open phase and lock spans, marked
   crashed; its request span stays open until the request is satisfied. *)

open Rme_sim

type span = {
  id : int;
  parent : int;  (** [-1] for a request span *)
  pid : int;
  req : int;
  name : string;
  start : int;
  stop : int;
  crashed : bool;
}

type open_lock = { l_lock : int; l_span : int; l_start : int; mutable l_children : int }

type proc = {
  mutable req : int;  (** request index of the open request span, -1 if none *)
  mutable req_span : int;
  mutable req_start : int;
  mutable phase : string;  (** "" outside a passage *)
  mutable phase_span : int;
  mutable phase_start : int;
  mutable last_done : int;
  mutable locks : open_lock list;  (** innermost first *)
  mutable level : int;  (** deepest BA-Lock level of the current request *)
}

(* Sum and count of durations per span name; lock spans are summed by
   self time (duration minus the nested lock spans it covers). *)
type agg = { mutable count : int; mutable total : int }

type t = {
  procs : proc array;
  mutable next_id : int;
  kept : span Vec.t;
  keep : int;  (** spans retained for writing out *)
  aggs : (string, agg) Hashtbl.t;
  mutable emitted : int;
  mutable requests_done : int;
  mutable crashes : int;
  mutable unsafe_crashes : int;
  mutable paths : int;
  mutable fast_paths : int;
  mutable level_sum : int;
  mutable level_max : int;
  mutable mem_ops_in_req : int;
}

let create ~n ~keep =
  {
    procs =
      Array.init n (fun _ ->
          {
            req = -1;
            req_span = -1;
            req_start = 0;
            phase = "";
            phase_span = -1;
            phase_start = 0;
            last_done = 0;
            locks = [];
            level = 0;
          });
    next_id = 0;
    kept = Vec.create ();
    keep;
    aggs = Hashtbl.create 16;
    emitted = 0;
    requests_done = 0;
    crashes = 0;
    unsafe_crashes = 0;
    paths = 0;
    fast_paths = 0;
    level_sum = 0;
    level_max = 0;
    mem_ops_in_req = 0;
  }

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add_agg t name dur =
  match Hashtbl.find_opt t.aggs name with
  | Some a ->
      a.count <- a.count + 1;
      a.total <- a.total + dur
  | None -> Hashtbl.add t.aggs name { count = 1; total = dur }

let close t ~id ~parent ~pid ~req ~name ~start ~stop ~crashed ~self =
  add_agg t name self;
  if Vec.length t.kept < t.keep then
    Vec.push t.kept { id; parent; pid; req; name; start; stop; crashed }

let lock_name id = Printf.sprintf "lock#%d" id

let close_phase t p ~pid ~stop ~crashed =
  if p.phase <> "" then begin
    close t ~id:p.phase_span ~parent:p.req_span ~pid ~req:p.req ~name:p.phase ~start:p.phase_start
      ~stop ~crashed ~self:(stop - p.phase_start);
    p.phase <- ""
  end

let open_phase t p name ~step =
  p.phase <- name;
  p.phase_span <- fresh t;
  p.phase_start <- step

let close_lock t p ~pid ~stop ~crashed (l : open_lock) rest =
  let dur = stop - l.l_start in
  let parent = match rest with outer :: _ -> outer.l_span | [] -> p.req_span in
  (match rest with outer :: _ -> outer.l_children <- outer.l_children + dur | [] -> ());
  close t ~id:l.l_span ~parent ~pid ~req:p.req ~name:(lock_name l.l_lock) ~start:l.l_start ~stop
    ~crashed ~self:(dur - l.l_children)

let seg t p ~pid ~step ~super (s : Event.seg) =
  match s with
  | Event.Ncs_begin -> ()
  | Event.Req_begin ->
      if p.req <> super then begin
        (* First attempt at this request: the request span and its pacing
           child start where the previous request ended. *)
        p.req <- super;
        p.req_span <- fresh t;
        p.req_start <- p.last_done;
        p.level <- 0;
        close t ~id:(fresh t) ~parent:p.req_span ~pid ~req:super ~name:"pacing" ~start:p.last_done
          ~stop:step ~crashed:false ~self:(step - p.last_done)
      end;
      open_phase t p "lock.entry" ~step
  | Event.Cs_begin ->
      close_phase t p ~pid ~stop:step ~crashed:false;
      open_phase t p "cs" ~step
  | Event.Cs_end ->
      close_phase t p ~pid ~stop:step ~crashed:false;
      open_phase t p "lock.exit" ~step
  | Event.Req_done ->
      close_phase t p ~pid ~stop:step ~crashed:false;
      close t ~id:p.req_span ~parent:(-1) ~pid ~req:p.req ~name:"request" ~start:p.req_start
        ~stop:step ~crashed:false ~self:(step - p.req_start);
      t.requests_done <- t.requests_done + 1;
      t.level_sum <- t.level_sum + p.level;
      p.req <- -1;
      p.last_done <- step

let on_event t (e : Event.t) =
  t.emitted <- t.emitted + 1;
  match e with
  | Event.Note { step; pid; super; note } -> (
      let p = t.procs.(pid) in
      match note with
      | Event.Seg s -> seg t p ~pid ~step ~super s
      | Event.Lock_enter id ->
          p.locks <- { l_lock = id; l_span = fresh t; l_start = step; l_children = 0 } :: p.locks
      | Event.Lock_released id -> (
          match p.locks with
          | l :: rest when l.l_lock = id ->
              close_lock t p ~pid ~stop:step ~crashed:false l rest;
              p.locks <- rest
          | _ -> ())
      | Event.Level l ->
          p.level <- max p.level l;
          t.level_max <- max t.level_max l
      | Event.Path (_, fast) ->
          t.paths <- t.paths + 1;
          if fast then t.fast_paths <- t.fast_paths + 1
      | _ -> ())
  | Event.Crash { step; pid; unsafe_wrt; _ } ->
      let p = t.procs.(pid) in
      t.crashes <- t.crashes + 1;
      if unsafe_wrt <> [] then t.unsafe_crashes <- t.unsafe_crashes + 1;
      close_phase t p ~pid ~stop:step ~crashed:true;
      let rec unwind = function
        | l :: rest ->
            close_lock t p ~pid ~stop:step ~crashed:true l rest;
            unwind rest
        | [] -> ()
      in
      unwind p.locks;
      p.locks <- []
  | Event.Sys_crash _ | Event.Op _ -> ()

(* Instructions a process executes inside a passage (entry, CS, exit),
   counting shared-memory operations only: notes, yields and clock reads
   are scheduling points, not memory traffic. *)
let on_op t (op : Crash.op_info) =
  match op.Crash.kind with
  | Api.Read | Api.Write | Api.Cas | Api.Fas | Api.Faa | Api.Spin ->
      if t.procs.(op.Crash.pid).phase <> "" then t.mem_ops_in_req <- t.mem_ops_in_req + 1
  | Api.Note | Api.Nop -> ()

(* Mean duration, in steps, of the spans named [name]; 0 when none. *)
let mean t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a when a.count > 0 -> float_of_int a.total /. float_of_int a.count
  | _ -> 0.0

(* "lock#<id>" names the span of lock [id]; the run's lock table gives
   the lock's registered name. *)
let lock_label (res : Engine.result) name =
  match String.split_on_char '#' name with
  | [ "lock"; id ] ->
      let id = int_of_string id in
      Some (if id < Array.length res.Engine.locks then res.Engine.locks.(id).Engine.lock_name else name)
  | _ -> None

(* Mean self time, in steps, and span count per lock. *)
let lock_self_times t res =
  Hashtbl.fold
    (fun name a acc ->
      match lock_label res name with
      | Some l -> (l, float_of_int a.total /. float_of_int (max 1 a.count), a.count) :: acc
      | None -> acc)
    t.aggs []
  |> List.sort compare

(* The retained spans as JSON lines. *)
let lines t res =
  List.map
    (fun s ->
      let name = match lock_label res s.name with Some l -> "lock:" ^ l | None -> s.name in
      Printf.sprintf
        "{\"id\": %d, \"parent\": %d, \"request\": [%d, %d], \"name\": %S, \"start_step\": %d, \"end_step\": %d, \"crashed\": %b}"
        s.id s.parent s.pid s.req name s.start s.stop s.crashed)
    (Vec.to_list t.kept)
