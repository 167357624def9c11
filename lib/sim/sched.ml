type t = { label : string; pick : runnable:int array -> step:int -> int }

let label t = t.label

let pick t ~runnable ~step =
  if Array.length runnable = 0 then invalid_arg "Sched.pick: empty runnable set";
  t.pick ~runnable ~step

let round_robin () =
  let cursor = ref 0 in
  {
    label = "round-robin";
    pick =
      (fun ~runnable ~step:_ ->
        (* Smallest runnable pid strictly greater than the cursor, wrapping.
           A plain loop over local refs: nothing escapes, so a pick
           allocates nothing. *)
        let best = ref (-1) in
        let smallest = ref runnable.(0) in
        for i = 0 to Array.length runnable - 1 do
          let p = Array.unsafe_get runnable i in
          if p < !smallest then smallest := p;
          if p > !cursor && (!best = -1 || p < !best) then best := p
        done;
        let chosen = if !best = -1 then !smallest else !best in
        cursor := chosen;
        chosen);
  }

let random ~seed =
  let rng = Random.State.make [| seed; 0xfa1afe1 |] in
  {
    label = Printf.sprintf "random(%d)" seed;
    pick = (fun ~runnable ~step:_ -> runnable.(Random.State.int rng (Array.length runnable)));
  }

let greedy () =
  let last = ref (-1) in
  {
    label = "greedy";
    pick =
      (fun ~runnable ~step:_ ->
        if Array.exists (fun p -> p = !last) runnable then !last
        else begin
          let m = Array.fold_left min runnable.(0) runnable in
          last := m;
          m
        end);
  }

let burst ~seed ~len =
  if len <= 0 then invalid_arg "Sched.burst: len must be positive";
  let rng = Random.State.make [| seed; 0xb025 |] in
  let current = ref (-1) in
  let remaining = ref 0 in
  {
    label = Printf.sprintf "burst(%d,%d)" seed len;
    pick =
      (fun ~runnable ~step:_ ->
        if !remaining > 0 && Array.exists (fun p -> p = !current) runnable then begin
          decr remaining;
          !current
        end
        else begin
          current := runnable.(Random.State.int rng (Array.length runnable));
          remaining := len - 1;
          !current
        end);
  }

(* Ascending copy of [runnable] in a scratch buffer reused across picks —
   this runs once per engine step of every explored run, so no per-pick
   allocation and no polymorphic compare.  The engine already produces
   runnable sets in ascending pid order, making the insertion sort a single
   verification pass.  Only the first [Array.length runnable] entries of
   the returned buffer are meaningful. *)
let sorted_scratch () =
  let buf = ref [||] in
  fun (runnable : int array) ->
    let len = Array.length runnable in
    if Array.length !buf < len then buf := Array.make (max 16 (2 * len)) 0;
    let a = !buf in
    Array.blit runnable 0 a 0 len;
    for i = 1 to len - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done;
    a

let recording ~inner ~decisions =
  let sorted_of = sorted_scratch () in
  {
    label = Printf.sprintf "recording(%s)" inner.label;
    pick =
      (fun ~runnable ~step ->
        let chosen = inner.pick ~runnable ~step in
        let sorted = sorted_of runnable in
        let idx = ref 0 in
        for i = 0 to Array.length runnable - 1 do
          if sorted.(i) = chosen then idx := i
        done;
        Vec.push decisions !idx;
        chosen);
  }

exception Unfaithful of { position : int; choice : int; degree : int }

let trace ?mismatch ?(strict = false) ~decisions ~record () =
  let sorted_of = sorted_scratch () in
  {
    label = "trace";
    pick =
      (fun ~runnable ~step:_ ->
        (* The position is the number of degrees recorded so far. *)
        let position = Vec.length record in
        let choice = if position < Vec.length decisions then Vec.get decisions position else 0 in
        let degree = Array.length runnable in
        Vec.push record degree;
        (* A decision outside the branching degree means the replayed run no
           longer takes the branches the decision vector was recorded
           against (the degree shifted, e.g. because an earlier decision was
           edited during shrinking).  Silently wrapping would report a trace
           that witnesses a different schedule than the one executed, so the
           divergence is surfaced: flagged via [mismatch], or fatal under
           [strict]. *)
        let k =
          if choice >= 0 && choice < degree then choice
          else begin
            if strict then raise (Unfaithful { position; choice; degree });
            (match mismatch with Some flag -> flag := true | None -> ());
            ((choice mod degree) + degree) mod degree
          end
        in
        (sorted_of runnable).(k));
  }
