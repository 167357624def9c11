(* Pieces shared by the workloads: the round loop with its determinism
   check, the end-to-end metrics, and the per-layer metrics of a traced
   engine run. *)

open Rme_sim

(* A measured round: what it computed in simulated units, its host
   seconds, its tick timeline, its allocation, and the peak major heap
   so far. *)
type 'sim round = { sim : 'sim; host : float; ticks : Report.ticks; gc : Report.gc; heap_words : int }

(* A workload's set-up: drawing its inputs from the seed plus a warm-up
   pass.  [value] is the first set-up's result; [times] its host seconds
   and those of the repeats [rounds] makes. *)
type 'a setup = { make : unit -> 'a; value : 'a; mutable times : float list }

let setup make =
  let value, dt, _ = Report.timed make in
  { make; value; times = [ dt ] }

(* Runs [f ticks] for [seconds] (at least twice).  [f] ticks at the start
   and end of the round and wherever its work recurs.  Each round's
   [units] count as attempted and its [failed] ones as failed; a round
   that does not repeat the first one's simulated results exactly fails
   whole.  The set-up is repeated, and timed, before a round whenever a
   twelfth of [seconds] has passed since its last repeat: spread over the
   run, its median is not at the mercy of one slow moment of a shared
   host.  Reports [setup_s]. *)
let rounds r ~seconds ~setup ~units ~failed f =
  let last_setup = ref (Report.now ()) in
  let rs =
    Report.repeat ~seconds ~min:2 (fun _ ->
        if Report.now () -. !last_setup >= seconds /. 12.0 then begin
          let _, dt, _ = Report.timed setup.make in
          setup.times <- dt :: setup.times;
          last_setup := Report.now ()
        end;
        let ticks = Report.ticks () in
        let sim, host, gc = Report.timed (fun () -> f ticks) in
        { sim; host; ticks; gc; heap_words = (Gc.quick_stat ()).Gc.top_heap_words })
  in
  let hosts = List.map (fun x -> x.host) rs in
  Report.note r "%d rounds, host seconds: median %.4f, min %.4f, max %.4f; fastest per interval %.4f"
    (List.length rs) (Report.median hosts) (List.fold_left Float.min infinity hosts)
    (List.fold_left Float.max 0.0 hosts)
    (Report.fastest (List.map (fun x -> x.ticks) rs));
  Report.metric r "setup_s" "s" (Report.median setup.times);
  let first = (List.hd rs).sim in
  List.iteri
    (fun k x ->
      let same = x.sim = first in
      Report.units r
        ~what:(Printf.sprintf "round %d%s" k (if same then "" else " (differs from round 0)"))
        ~attempted:(units x.sim)
        ~failed:(if same then failed x.sim else units x.sim))
    rs;
  rs

let median_of f rs = Report.median (List.map f rs)

(* Simulated passage statistics, summed over one or many engine runs. *)
type passages = {
  mutable count : int;  (** passages, completed or ended by a crash *)
  mutable completed : int;
  mutable steps : int;
  mutable rmr_sum : int;
  mutable rmr_max : int;
  lat : Rme_check.Metrics.Hist.t;  (** completed passages' latency, in steps *)
  mutable by_kind : (Api.kind * int) list;  (** RMRs by instruction kind *)
  rmr : Rme_check.Metrics.Hist.t;  (** RMRs per passage *)
}

let passages () =
  { count = 0; completed = 0; steps = 0; rmr_sum = 0; rmr_max = 0; lat = Rme_check.Metrics.Hist.create (); by_kind = []; rmr = Rme_check.Metrics.Hist.create () }

let add_result p (res : Engine.result) =
  p.steps <- p.steps + res.Engine.steps;
  p.by_kind <-
    List.fold_left
      (fun acc (k, v) ->
        match List.assoc_opt k acc with
        | Some w -> (k, v + w) :: List.remove_assoc k acc
        | None -> (k, v) :: acc)
      p.by_kind res.Engine.rmr_by_kind;
  Array.iter
    (fun (ps : Engine.proc_stats) ->
      List.iter
        (fun (pa : Engine.passage) ->
          p.count <- p.count + 1;
          if pa.Engine.completed then begin
            p.completed <- p.completed + 1;
            Rme_check.Metrics.Hist.add p.lat pa.Engine.latency
          end;
          p.rmr_sum <- p.rmr_sum + pa.Engine.rmr;
          Rme_check.Metrics.Hist.add p.rmr pa.Engine.rmr;
          p.rmr_max <- max p.rmr_max pa.Engine.rmr)
        ps.Engine.passages)
    res.Engine.procs

let percentiles h =
  let q = Rme_check.Metrics.Hist.percentile h in
  (q 0.50, q 0.99, q 0.999)

(* RMRs per passage over all passages, crashed ones included (the paper
   charges a passage's RMRs whether or not a failure ends it). *)
type rmr = { mean : float; p999 : int; max : int }

let rmr p =
  {
    mean = float_of_int p.rmr_sum /. float_of_int (max 1 p.count);
    p999 = Rme_check.Metrics.Hist.percentile p.rmr 0.999;
    max = p.rmr_max;
  }

(* The end-to-end metrics, reported with tracing off.  [passages] are the
   completed passages of one round and [ops] its allocation denominator
   (passages, or explorer runs); [steps_per_passage], [latency] (p50, p99,
   p999, in steps) and [rmr] are the simulated figures.  Host time is the
   tick estimator over the rounds; the heap peak is the one reached by
   the end of the first round, which is the same in every run of a
   seed. *)
let end_to_end r ~rounds ~passages ~ops ~steps_per_passage ~latency:(p50, p99, p999) ~(rmr : rmr) =
  let fl = float_of_int in
  let host = Report.fastest (List.map (fun x -> x.ticks) rounds) in
  let first = List.hd rounds in
  Report.metric r "verdict_s" "s" host;
  Report.metric r "passages_per_s" "1/s" (fl passages /. host);
  Report.metric r "steps_per_passage" "steps" steps_per_passage;
  Report.metric r "latency_p50_steps" "steps" (fl p50);
  Report.metric r "latency_p99_steps" "steps" (fl p99);
  Report.metric r "latency_p999_steps" "steps" (fl p999);
  Report.metric r "rmr_per_passage" "rmr" rmr.mean;
  Report.metric r "rmr_per_passage_p999" "rmr" (fl rmr.p999);
  Report.metric r "minor_words_per_op" "words/op" (median_of (fun x -> x.gc.Report.minor) rounds /. fl ops);
  Report.metric r "heap_peak_mb" "MB" (fl (first.heap_words * (Sys.word_size / 8)) /. 1048576.0)

let rmr_kinds = [ (Api.Read, "read"); (Api.Write, "write"); (Api.Cas, "cas"); (Api.Fas, "fas"); (Api.Spin, "spin") ]

let rmr_by_kind r ~passages ~(rmr : rmr) by_kind =
  Report.metric r "memory.rmr.passage_max" "rmr" (float_of_int rmr.max);
  List.iter
    (fun (k, name) ->
      let v = try List.assoc k by_kind with Not_found -> 0 in
      Report.metric r
        (Printf.sprintf "memory.rmr.%s_per_passage" name)
        "rmr"
        (float_of_int v /. float_of_int passages))
    rmr_kinds

(* Untraced and traced rounds, alternated for [seconds] (at least one
   pair).  [untraced ()] and [traced ()] both return the round's
   simulated summary, which must agree: tracing may not change what is
   simulated (a pair that disagrees fails whole).  Returns the untraced
   rounds and the last traced run's extra output, and reports the
   overhead ratio of the medians. *)
let traced_pairs r ~seconds ~units ~failed ~untraced ~traced =
  let pairs =
    Report.repeat ~seconds ~min:1 (fun _ ->
        let ticks = Report.ticks () in
        let sim, host, gc = Report.timed (fun () -> untraced ticks) in
        let (tsim, extra), thost, _ = Report.timed traced in
        ({ sim; host; ticks; gc; heap_words = 0 }, tsim, extra, thost))
  in
  List.iter
    (fun (p, tsim, _, _) ->
      let same = tsim = p.sim in
      Report.units r
        ~what:(if same then "traced pair" else "traced pair (traced run differs)")
        ~attempted:(2 * units p.sim)
        ~failed:(if same then 2 * failed p.sim else 2 * units p.sim))
    pairs;
  let _, _, extra, _ = List.nth pairs (List.length pairs - 1) in
  let ratio =
    median_of (fun (_, _, _, th) -> th) pairs /. median_of (fun (p, _, _, _) -> p.host) pairs
  in
  Report.metric r "trace.overhead_ratio" "ratio" ratio;
  (List.map (fun (p, _, _, _) -> p) pairs, extra)

(* Per-layer metrics of a traced lock run (service and storm). *)
let lock_layers r ~(spans : Spans.t) ~(res : Engine.result) ~plain ~passages ~rmr ~polls =
  let fl = float_of_int in
  let steps = res.Engine.steps in
  let host = median_of (fun p -> p.host) plain in
  let gc = (List.hd plain).gc in
  Report.metric r "pacing.polls_per_passage" "polls" (fl polls /. fl passages);
  Report.metric r "engine.ns_per_step" "ns" (host *. 1e9 /. fl steps);
  rmr_by_kind r ~passages ~rmr res.Engine.rmr_by_kind;
  Report.metric r "lock.entry_steps" "steps" (Spans.mean spans "lock.entry");
  Report.metric r "lock.cs_steps" "steps" (Spans.mean spans "cs");
  Report.metric r "lock.exit_steps" "steps" (Spans.mean spans "lock.exit");
  Report.metric r "lock.ops_per_passage" "ops" (fl spans.Spans.mem_ops_in_req /. fl passages);
  Report.metric r "gc.minor_words_per_step" "words" (gc.Report.minor /. fl steps);
  Report.metric r "gc.promoted_words_per_op" "words/op" (gc.Report.promoted /. fl passages);
  Report.metric r "gc.major_collections" "count" (fl gc.Report.majors);
  Report.metric r "event.emitted_per_step" "events" (fl spans.Spans.emitted /. fl steps);
  List.iter
    (fun (name, self, count) -> Report.note r "lock span %-24s %7d spans, mean self time %.1f steps" name count self)
    (Spans.lock_self_times spans res)
