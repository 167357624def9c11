(* The repository's benchmark: the lock service, the crash storm and the
   explorer, measured end to end and layer by layer.

     main.exe --workload W --seed N --seconds S --trace 0|1

   W is one of service-open, storm-closed, explore-dpor, explore-ckpt, or
   all (every workload in turn, one result line each, then a combined
   line).  All inputs are drawn from N.  Each workload is measured for S
   seconds of host time; with --trace 1 the run is a separate traced run
   that reports the per-layer metrics instead of the end-to-end ones.
   The last line of standard output is the JSON result; the exit code is
   1 when any correctness check failed.  README.md explains the choices. *)

let end_to_end =
  [
    ("verdict_s", "s");
    ("passages_per_s", "1/s");
    ("steps_per_passage", "steps");
    ("latency_p50_steps", "steps");
    ("latency_p99_steps", "steps");
    ("latency_p999_steps", "steps");
    ("rmr_per_passage", "rmr");
    ("rmr_per_passage_p999", "rmr");
    ("minor_words_per_op", "words/op");
    ("heap_peak_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("ops_failed_frac", "share");
    ("service.capacity_per_kstep", "1/kstep");
    ("service.start_lag_p99_steps", "steps");
    ("explore.runs_to_verdict", "runs");
    ("api.yield_step_ns", "ns");
    ("pacing.polls_per_passage", "polls");
    ("engine.ns_per_step", "ns");
    ("engine.run_setup_us", "us");
    ("engine.resume_us", "us");
    ("engine.replay_us", "us");
    ("memory.cc.read_ns", "ns");
    ("memory.cc.cas_ns", "ns");
    ("memory.cc.fas_ns", "ns");
    ("memory.dsm.read_ns", "ns");
    ("memory.dsm.cas_ns", "ns");
    ("memory.dsm.fas_ns", "ns");
    ("memory.rmr.read_per_passage", "rmr");
    ("memory.rmr.write_per_passage", "rmr");
    ("memory.rmr.cas_per_passage", "rmr");
    ("memory.rmr.fas_per_passage", "rmr");
    ("memory.rmr.spin_per_passage", "rmr");
    ("memory.rmr.passage_max", "rmr");
    ("memory.snapshot_us", "us");
    ("memory.restore_us", "us");
    ("memory.fingerprint_ns", "ns");
    ("sched.random_pick_k8_ns", "ns");
    ("sched.random_pick_k16_ns", "ns");
    ("sched.trace_pick_ns", "ns");
    ("lock.entry_steps", "steps");
    ("lock.cs_steps", "steps");
    ("lock.exit_steps", "steps");
    ("lock.ops_per_passage", "ops");
    ("ba_lock.fast_path_frac", "share");
    ("ba_lock.level_mean", "level");
    ("ba_lock.level_max", "level");
    ("crash.per_kpassage", "crashes");
    ("crash.unsafe_frac", "share");
    ("engine.crashed_passage_frac", "share");
    ("metrics.hist_add_ns", "ns");
    ("explore.engine_runs", "runs");
    ("explore.engine_steps_per_run", "steps");
    ("explore.us_per_engine_run", "us");
    ("explore.setup_us_per_run", "us");
    ("statecache.hit_frac", "share");
    ("statecache.evictions", "count");
    ("statecache.find_ns", "ns");
    ("statecache.add_ns", "ns");
    ("footprint.race_scan_us", "us");
    ("gc.minor_words_per_step", "words");
    ("gc.promoted_words_per_op", "words/op");
    ("gc.major_collections", "count");
    ("trace.overhead_ratio", "ratio");
    ("event.emitted_per_step", "events");
  ]

let workloads =
  [
    ("service-open", Service_wl.run);
    ("storm-closed", Storm_wl.run);
    ("explore-dpor", Explore_wl.run ~explorer:Explore_wl.Sequential);
    ("explore-ckpt", Explore_wl.run ~explorer:Explore_wl.Checkpointing);
  ]

let out_dir = ".bench_out"

let write_spans ~workload ~seed lines =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed) in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  path

let run_workload ~seed ~seconds ~trace (name, run) =
  let r = Report.create name in
  let spans = run ~seed ~seconds ~trace r in
  if trace then begin
    let layers, resume_ok = Layers.run ~quota:0.15 in
    List.iter (fun (n, u, v) -> Report.metric r n u v) layers;
    Report.check r ~what:"checkpoint resume reproduces the full replay" ~attempted:1 resume_ok;
    (match spans with
    | Some lines -> Report.note r "spans: %s" (write_spans ~workload:name ~seed lines)
    | None -> ());
    Report.metric r "ops_failed_frac" "share"
      (float_of_int r.Report.failed /. float_of_int (max 1 r.Report.attempted))
  end;
  let expected, missing_is_zero = if trace then (per_layer, true) else (end_to_end, false) in
  Report.print r ~expected ~missing_is_zero;
  r

let usage () =
  Printf.eprintf
    "usage: main.exe --workload (%s|all) --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map fst workloads));
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  if List.exists (fun (k, _) -> not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ])) opts then usage ();
  let seed = int "seed" and seconds = int "seconds" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 then usage ();
  let seconds = float_of_int seconds in
  let chosen =
    match get "workload" with
    | "all" -> workloads
    | w -> ( match List.assoc_opt w workloads with Some run -> [ (w, run) ] | None -> usage ())
  in
  let reports = List.map (run_workload ~seed ~seconds ~trace) chosen in
  (match reports with
  | [ _ ] -> ()
  | _ ->
      (* The combined line of --workload all: every workload's metrics,
         prefixed with the workload's name. *)
      let all = Report.create "all" in
      List.iter
        (fun (r : Report.t) ->
          Report.units all ~what:r.Report.workload ~attempted:r.Report.attempted ~failed:r.Report.failed;
          List.iter (fun (n, u, v) -> Report.metric all (r.Report.workload ^ "." ^ n) u v) r.Report.metrics)
        reports;
      let expected =
        List.concat_map
          (fun (r : Report.t) ->
            List.map
              (fun (n, u) -> (r.Report.workload ^ "." ^ n, u))
              (if trace then per_layer else end_to_end))
          reports
      in
      Report.print all ~expected ~missing_is_zero:trace);
  exit (if List.for_all Report.correct reports then 0 else 1)
