(* perfbench: the repository's benchmark driver.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one of four workloads (census-full, census-sym, synth-climb,
   serve-mix; NOTES.md says why each exists), checks its outputs, and
   prints as its last stdout line one JSON object

     {"correct":..,"attempted":..,"failed":..,"metrics":{..}}

   carrying the end-to-end metrics with --trace 0 and the per-layer
   metrics with --trace 1.  Human-readable detail (sample counts, the
   attribution flag, failed checks) goes to stdout above that line.
   Every wrong output counts as a failed operation.

     main.exe --setup-probe NAME
     main.exe --latency-probe NAME --seed N

   are the children the set-up and census latency measurements spawn
   (see [setup_probe] and [latency_probe]). *)

open Perfbench

let now = Obs.Clock.now

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let info fmt = Printf.ksprintf (fun s -> print_string s; print_newline ()) fmt

(* ------------------------------------------------------------------ *)
(* Operations, metrics and the result line *)

let attempted = ref 0
let failed = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun what ->
      incr attempted;
      if not ok then begin
        incr failed;
        info "FAILED: %s" what
      end)
    fmt

let metrics : (string * (float * string)) list ref = ref []
let report name unit value = metrics := (name, (value, unit)) :: !metrics

(* Every per-layer metric, with its unit.  A traced run reports all of
   them; a layer the workload does not exercise reads 0. *)
let per_layer =
  [
    ("gc.major_words_per_unit", "words/unit");
    ("gc.minor_words_per_unit", "words/unit");
    ("gc.promoted_share", "share");
    ("gc.major_collections", "count");
    ("pool.chunks", "count");
    ("pool.busy_s", "s");
    ("pool.busy_s_per_unit", "s/unit");
    ("pool.utilization", "share");
    ("pool.chunk_max_over_mean", "ratio");
    ("kernel.compile_s_per_table", "s");
    ("kernel.search_s_per_table", "s");
    ("decide.kernel_evals_per_unit", "evals/unit");
    ("decide.partitions_pruned_per_unit", "prunes/unit");
    ("sym.sweep_s", "s");
    ("sym.sweep_share", "share");
    ("sym.classes", "count");
    ("sym.reduction", "ratio");
    ("synth.evals", "count");
    ("synth.sym_skips", "count");
    ("synth.eval_s", "s");
    ("kernel.patches", "count");
    ("kernel.masks_reused_ratio", "share");
    ("store.replay_s", "s");
    ("store.replay_mb_per_s", "MB/s");
    ("store.loaded", "count");
    ("store.hit_ratio", "share");
    ("store.puts", "count");
    ("fsio.append_s.p50", "s");
    ("fsio.fsync_s.p50", "s");
    ("fsio.fsync_s.p99", "s");
    ("serve.fast_path_ms.p50", "ms");
    ("serve.fast_path_ms.p99", "ms");
    ("serve.engine_ms.p50", "ms");
    ("serve.engine_ms.p99", "ms");
    ("serve.busy", "count");
    ("wire.codec_us_per_request", "us");
    ("wire.bytes_per_response", "bytes");
    ("trace.overhead", "share");
    ("trace.unattributed_share", "share");
    ("trace.flagged", "count");
  ]

let layer_values : (string, float) Hashtbl.t = Hashtbl.create 64

let layer name v =
  if not (List.mem_assoc name per_layer) then invalid_arg ("unknown per-layer metric " ^ name);
  Hashtbl.replace layer_values name v

let report_layers () =
  List.iter
    (fun (name, unit) ->
      report name unit (Option.value ~default:0. (Hashtbl.find_opt layer_values name)))
    per_layer

(* The result line.  [Wire] refuses a non-finite number, so a NaN or
   infinite metric fails the run instead of printing a result. *)
let print_result () =
  let metric (name, (value, unit)) =
    (name, Wire.Obj [ ("value", Wire.Float value); ("unit", Wire.String unit) ])
  in
  print_endline
    (Wire.to_string
       (Wire.Obj
          [
            ("correct", Wire.Bool (!failed = 0));
            ("attempted", Wire.Int !attempted);
            ("failed", Wire.Int !failed);
            ("metrics", Wire.Obj (List.rev_map metric !metrics));
          ]))

let per_unit v units = if units > 0. then v /. units else 0.

let pct_or_fail what p xs =
  match Stats.percentile ~p xs with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: %d samples are too few for p%g" what (List.length xs) p)

(* ------------------------------------------------------------------ *)
(* Tracing.  The recorder is [Some] only during a traced phase. *)

let recorder : Spans.t option ref = ref None
let span ?req name f = match !recorder with Some r -> Spans.with_span r ?req name f | None -> f ()

let traced r f =
  recorder := Some r;
  Fun.protect ~finally:(fun () -> recorder := None) f

(* Where this run keeps its scratch files and its span log. *)
let work_dir = Filename.concat ".bench_build" "perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* Attribution over the traced phase: the share of the root spans'
   wall-clock that no leaf span covers (see [Spans.unattributed]),
   flagged above 10%.  The spans are written out as JSON lines. *)
let finish_trace ~workload ~seed r ~untraced_cpu_rate ~traced_cpu_rate =
  let spans = Spans.spans r in
  let unattributed = Spans.unattributed spans in
  layer "trace.unattributed_share" unattributed;
  layer "trace.flagged" (if Spans.flagged unattributed then 1. else 0.);
  if Spans.flagged unattributed then
    info "FLAG: layers cover only %.1f%% of %s's traced wall-clock" (100. *. (1. -. unattributed))
      workload
  else info "trace: layers cover %.1f%% of the traced wall-clock" (100. *. (1. -. unattributed));
  layer "trace.overhead" (per_unit (untraced_cpu_rate -. traced_cpu_rate) untraced_cpu_rate);
  mkdir_p work_dir;
  let path = Filename.concat work_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed) in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Spans.to_jsonl spans));
  info "trace: %d spans in %s; self time by span:" (List.length spans) path;
  List.iter (fun (name, s) -> info "  %-28s %10.6f s" name s) (Spans.self_by_name spans)

(* ------------------------------------------------------------------ *)
(* Process facts from /proc *)

let proc_status_kb pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let prefix = field ^ ":" in
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith (path ^ ": no " ^ field)
        | Some l when String.starts_with ~prefix l ->
            let rest = String.sub l (String.length prefix) (String.length l - String.length prefix) in
            Scanf.sscanf rest " %d" Fun.id
        | Some _ -> go ()
      in
      go ())

let peak_rss_mb pid = float_of_int (proc_status_kb pid "VmHWM") /. 1024.

(* utime + stime of a whole process (every thread and domain), seconds;
   Linux reports them in USER_HZ = 100 ticks per second. *)
let proc_cpu_s pid =
  let s = In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  let close = String.rindex s ')' in
  let rest = String.sub s (close + 2) (String.length s - close - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.

(* ------------------------------------------------------------------ *)
(* Workload definitions *)

let jobs = 2
let full_space = { Synth.num_values = 3; num_rws = 2; num_responses = 2 }
let sym_space = { Synth.num_values = 3; num_rws = 2; num_responses = 4 }
let census_cap = 3

(* The {3,2,4} cap-3 histogram, pinned.  The unreduced census of the
   same space (2,985,984 tables decided one by one) gives exactly these
   counts; NOTES.md records that run. *)
let sym_pin =
  List.map
    (fun (discerning, recording, count) -> { Census.discerning; recording; count })
    [ (1, 1, 62256); (2, 1, 2284752); (2, 2, 266688); (3, 2, 101952); (3, 3, 270336) ]

let replay_sample = 200
let latency_sample = 20_000
let latency_slice = 2000

let synth_space = { Synth.num_values = 11; num_rws = 3; num_responses = 11 }
let synth_target = 4
let synth_budget = 6000

(* The climb seeds of one synth-climb pass.  A climb's cost depends on
   where its restarts land (0.09 s to 8.9 s per 6,000 candidates over
   seeds 1-14), so the run seed cannot pick the climbs without making
   the workload's cost a lottery; it only rotates this panel. *)
let synth_panel = [| 1; 2; 3 |]

(* Pinned output of each panel climb: candidates scored, whether a
   witness was found, and the MD5 of its fitness trajectory. *)
let synth_pins =
  [
    (1, (6000, false, "ca9c6724548067c2e6fd9a535b70dcf2"));
    (2, (6000, false, "8963dddaa06f3f5ea172b42576e32ed2"));
    (3, (6000, false, "92b4ca32541f389a68c2c5d2000c88de"));
  ]

(* Analyze specs come from {4,2,4} tables that are 3-discerning, at cap
   4: deciding one sweeps the 4-process candidates, about a millisecond
   of engine work, plus an fsync'd store append. *)
let serve_space = { Synth.num_values = 4; num_rws = 2; num_responses = 4 }
let serve_min_level = 3

let serve_params =
  { Mix.hot = 256; conns = 2; miss_share = 0.02; metrics_share = 0.01; cap = 4 }

let serve_spec_pool = 3000
let serve_seed_records = 20_000
let serve_record_bytes = 640
let serve_setups = 9
let fsio_samples = 1100

(* ------------------------------------------------------------------ *)
(* Set-up, timed in fresh processes *)

let setup_work workload =
  match workload with
  | "census-full" | "census-sym" ->
      let pool = Pool.create ~jobs () in
      for n = 2 to census_cap do
        Kernel.warm_trie ~nprocs:n ()
      done;
      ignore (Engine.Cache.create ());
      if workload = "census-sym" then
        ignore
          (Sym.make ~values:sym_space.num_values ~ops:sym_space.num_rws
             ~responses:sym_space.num_responses);
      Some pool
  | "synth-climb" ->
      for n = 2 to synth_target + 1 do
        Kernel.warm_trie ~nprocs:n ()
      done;
      ignore
        (Sym.make ~values:synth_space.num_values ~ops:synth_space.num_rws
           ~responses:synth_space.num_responses);
      None
  | w -> invalid_arg ("no set-up probe for " ^ w)

let setup_probe workload =
  let pool = setup_work workload in
  print_endline "ready";
  flush stdout;
  Option.iter Pool.shutdown pool;
  exit 0

(* [n] fresh processes' times from spawn to "ready": exec, runtime and
   module initialization, and the workload's set-up calls, cold every
   time.  Runs take a few before timing and a few more after every
   repetition, so the median spans the whole run. *)
let setup_samples workload n =
  let exe = Sys.executable_name in
  List.init n (fun _ ->
      let t0 = now () in
      let ic = Unix.open_process_args_in exe [| exe; "--setup-probe"; workload |] in
      let line = In_channel.input_line ic in
      let t1 = now () in
      let status = Unix.close_process_in ic in
      check (line = Some "ready" && status = Unix.WEXITED 0) "set-up probe of %s" workload;
      t1 -. t0)

let setup_median samples =
  let m = Stats.median samples in
  info "setup_s: median %.6f s of %d fresh-process set-ups (max %.6f)" m (List.length samples)
    (Stats.maximum samples);
  m

(* ------------------------------------------------------------------ *)
(* Repetitions *)

type rep = { wall : float; cpu : float; units : float }

let work_rate reps = Stats.median (List.map (fun r -> r.units /. r.wall) reps)
let cpu_rate reps = Stats.median (List.map (fun r -> r.units /. r.cpu) reps)
let sum f reps = List.fold_left (fun a r -> a +. f r) 0. reps

let timed units f =
  let c0 = cpu_now () and t0 = now () in
  let x = f () in
  let t1 = now () and c1 = cpu_now () in
  (x, { wall = t1 -. t0; cpu = c1 -. c0; units = units x })

(* [one ()] repeatedly until [seconds] have passed, at least once. *)
let repeat_for seconds one =
  let t_end = now () +. seconds in
  let rec go acc = if acc <> [] && now () >= t_end then List.rev acc else go (one () :: acc) in
  go []

let report_end_to_end ~setup ~rss ~reps ~p50 ~p99 =
  report "setup_s" "s" setup;
  report "work_per_s" "unit/s" (work_rate reps);
  report "work_per_cpu_s" "unit/cpu-s" (cpu_rate reps);
  report "peak_rss_mb" "MB" rss;
  report "latency_p50_ms" "ms" p50;
  report "latency_p99_ms" "ms" p99

let gc_layers ~units (g0 : Gc.stat) (g1 : Gc.stat) =
  let minor = g1.minor_words -. g0.minor_words in
  layer "gc.minor_words_per_unit" (per_unit minor units);
  layer "gc.major_words_per_unit" (per_unit (g1.major_words -. g0.major_words) units);
  layer "gc.promoted_share" (per_unit (g1.promoted_words -. g0.promoted_words) minor);
  layer "gc.major_collections" (float_of_int (g1.major_collections - g0.major_collections))

let counter obs name = float_of_int (Obs.Metrics.Counter.value (Obs.counter obs name))

(* ------------------------------------------------------------------ *)
(* census-full and census-sym *)

(* A table's levels replayed through the kernel's public calls, the way
   [Engine.census_levels] decides it inside the census. *)
let replay_levels ~cap ty =
  let level condition =
    let rec loop n =
      if n > cap then cap
      else
        let k = span "kernel.compile" (fun () -> Kernel.compile ty ~n) in
        let found, _ =
          span "kernel.search_range" (fun () ->
              Kernel.search_range ~mode:Kernel.Trie k (Kernel.scratch k) condition ~lo:0
                ~hi:(Kernel.total k) ~stop:(fun _ -> false))
        in
        if found <> None then loop (n + 1) else n - 1
    in
    loop 2
  in
  (level Kernel.Discerning, level Kernel.Recording)

(* A seeded sample of the tables a census decides: uniform table
   indices, each mapped to its class representative under [sym], so
   classes are drawn orbit-weighted like the census's unit. *)
let sample_tables ~sym ~seed ~count space =
  let picks = Mix.sample ~seed ~size:(Census.space_size space) ~count in
  if not sym then picks
  else
    let s =
      Sym.make ~values:space.Synth.num_values ~ops:space.Synth.num_rws
        ~responses:space.Synth.num_responses
    in
    Array.map (fun i -> (Sym.canonize_index s i).Sym.index) picks

(* The census's per-table step, timed alone, in ms.  A whole census is
   one answer, too few per run for percentiles, so census latency is
   the time to decide one table. *)
let decide_timed cache space index =
  let t0 = now () in
  let ty = Synth.to_objtype (Census.genome_of_index space index) in
  ignore (Engine.census_levels cache ~kernel:Kernel.Trie ~cap:census_cap ty);
  (now () -. t0) *. 1e3

(* The child behind [--latency-probe WORKLOAD --seed N]: each line it
   reads makes it decide the next [latency_slice] tables of the seeded
   sample and answer with their times.  It runs in its own
   single-domain process: in the benchmark's process, the pool's idle
   worker domain would have to be woken for every minor collection. *)
let latency_probe workload seed =
  let sym = workload = "census-sym" in
  let space = if sym then sym_space else full_space in
  let tables = sample_tables ~sym ~seed ~count:latency_sample space in
  let cache = Engine.Cache.create () in
  let next = ref 0 in
  let answer line =
    print_string line;
    print_newline ()
  in
  answer "ready";
  (try
     while true do
       ignore (input_line stdin);
       answer
         (String.concat " "
            (List.init latency_slice (fun _ ->
                 let index = tables.(!next mod Array.length tables) in
                 incr next;
                 Printf.sprintf "%.6f" (decide_timed cache space index))))
     done
   with End_of_file -> ());
  exit 0

(* Run [f] with a function that fetches the next latency slice. *)
let with_latency_probe workload seed f =
  let exe = Sys.executable_name in
  let ic, oc =
    Unix.open_process_args exe [| exe; "--latency-probe"; workload; "--seed"; string_of_int seed |]
  in
  Fun.protect ~finally:(fun () -> ignore (Unix.close_process (ic, oc))) @@ fun () ->
  check (In_channel.input_line ic = Some "ready") "latency probe of %s starts" workload;
  f (fun () ->
      output_string oc "next\n";
      flush oc;
      match In_channel.input_line ic with
      | Some line -> List.map float_of_string (String.split_on_char ' ' line)
      | None -> failwith "latency probe died")

(* The traced split of the per-table step: a seeded sample replayed at
   jobs 1 through the kernel's public calls, each table's levels checked
   against [Engine.census_levels]. *)
let census_replay ~sym ~seed space =
  let picks = sample_tables ~sym ~seed ~count:replay_sample space in
  let cache = Engine.Cache.create () in
  Array.iter
    (fun index ->
      let g = span "census.genome_of_index" (fun () -> Census.genome_of_index space index) in
      let ty = span "synth.to_objtype" (fun () -> Synth.to_objtype g) in
      let replayed = replay_levels ~cap:census_cap ty in
      let engine =
        span "engine.census_levels" (fun () ->
            Engine.census_levels cache ~kernel:Kernel.Trie ~cap:census_cap ty)
      in
      check (replayed = engine) "replayed levels of table %d" index)
    picks;
  Array.length picks

let census_workload ~sym ~seed ~seconds ~trace =
  let name = if sym then "census-sym" else "census-full" in
  let space = if sym then sym_space else full_space in
  let config = Api.Config.v ~cap:census_cap ~sym () in
  let outputs = ref [] in
  let census ?obs pool () =
    let run = Engine.census ?obs ~config pool space in
    outputs := run :: !outputs;
    run
  in
  let units run = float_of_int run.Engine.completed in
  let with_pool ?obs f =
    let pool = Pool.create ?obs ~jobs () in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    for n = 2 to census_cap do
      Kernel.warm_trie ~nprocs:n ()
    done;
    f pool
  in
  let setup = ref (if trace then [] else setup_samples name 5) in
  let untraced = if trace then seconds /. 2. else seconds in
  (* A latency slice is taken after each timed census, so the latency
     samples spread over the whole run like the throughput samples. *)
  let lat = ref [] in
  let timed_phase slice =
    with_pool (fun pool ->
        (* An untimed census first, so the heap has grown to its working
           size before the first timed one (the traced phase below runs
           in the same, already grown, process). *)
        ignore (Engine.census ~config pool space);
        repeat_for untraced (fun () ->
            let rep = snd (timed units (census pool)) in
            lat := slice () @ !lat;
            if not trace then setup := setup_samples name 2 @ !setup;
            rep))
  in
  let reps =
    if trace then timed_phase (fun () -> []) else with_latency_probe name seed timed_phase
  in
  let rss = peak_rss_mb "self" in
  info "%s: %d timed censuses of %d tables: %s (wall/CPU s)" name
    (List.length reps) (Census.space_size space)
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f/%.3f" r.wall r.cpu) reps));
  if trace then begin
    let obs = Obs.create () in
    let r = Spans.create () in
    let busy () = Obs.Metrics.Histogram.sum (Obs.histogram obs "pool.chunk_s") in
    let g0 = ref (Gc.quick_stat ()) in
    let treps =
      with_pool ~obs (fun pool ->
          g0 := Gc.quick_stat ();
          traced r @@ fun () ->
          Spans.with_span r "run" (fun () ->
              List.init 2 (fun _ ->
                  snd (timed units (fun () ->
                      (* Inside the census, the class sweep runs first (as
                         long as the engine's own sym.canon_ns), then the
                         pool's chunks (Σ pool.chunk_s over [jobs] domains).
                         What neither covers stays unattributed. *)
                      let canon0 = counter obs "sym.canon_ns" and busy0 = busy () in
                      let t0 = now () in
                      let run = census ~obs pool () in
                      let t1 = now () in
                      let id = Spans.add r ~name:"engine.census" ~start:t0 ~stop:t1 () in
                      let canon = (counter obs "sym.canon_ns" -. canon0) /. 1e9 in
                      let work = (busy () -. busy0) /. float_of_int jobs in
                      if sym then
                        ignore
                          (Spans.add r ~parent:id ~name:"sym.classes" ~start:t0
                             ~stop:(t0 +. canon) ());
                      ignore
                        (Spans.add r ~parent:id ~name:"pool.chunks" ~start:(t0 +. canon)
                           ~stop:(Float.min t1 (t0 +. canon +. work)) ());
                      run)))))
    in
    let g1 = Gc.quick_stat () in
    let tunits = sum (fun r -> r.units) treps and twall = sum (fun r -> r.wall) treps in
    gc_layers ~units:tunits !g0 g1;
    let chunk = Obs.histogram obs "pool.chunk_s" in
    let busy = busy () in
    layer "pool.chunks" (counter obs "pool.chunks");
    layer "pool.busy_s" busy;
    layer "pool.busy_s_per_unit" (per_unit busy tunits);
    layer "pool.utilization" (per_unit busy (twall *. float_of_int jobs));
    layer "pool.chunk_max_over_mean"
      (per_unit (Obs.Metrics.Histogram.max chunk) (Obs.Metrics.Histogram.mean chunk));
    layer "decide.kernel_evals_per_unit" (per_unit (counter obs "decide.kernel_evals") tunits);
    layer "decide.partitions_pruned_per_unit"
      (per_unit (counter obs "decide.partitions_pruned") tunits);
    if sym then begin
      let n = float_of_int (List.length treps) in
      let sweep = counter obs "sym.canon_ns" /. 1e9 /. n in
      let classes = counter obs "sym.classes" /. n in
      layer "sym.sweep_s" sweep;
      layer "sym.sweep_share" (per_unit (sweep *. n) twall);
      layer "sym.classes" classes;
      layer "sym.reduction" (per_unit (float_of_int (Census.space_size space)) classes)
    end;
    (* The per-table split inside the census, from a seeded replay. *)
    let tables =
      traced r @@ fun () -> Spans.with_span r "replay" (fun () -> census_replay ~sym ~seed space)
    in
    let self = Spans.self_by_name (Spans.spans r) in
    let self_of name = Option.value ~default:0. (List.assoc_opt name self) in
    layer "kernel.compile_s_per_table" (per_unit (self_of "kernel.compile") (float_of_int tables));
    layer "kernel.search_s_per_table"
      (per_unit (self_of "kernel.search_range") (float_of_int tables));
    finish_trace ~workload:name ~seed r ~untraced_cpu_rate:(cpu_rate reps)
      ~traced_cpu_rate:(cpu_rate treps)
  end;
  (* Output checks: every census complete and equal to the reference —
     the pin for census-sym, the sequential census for census-full
     (computed here, after the timed phases). *)
  let reference =
    if sym then sym_pin
    else begin
      let t0 = now () in
      let h = Census.exhaustive ~cap:census_cap space in
      info "reference: sequential Census.exhaustive in %.3f s" (now () -. t0);
      h
    end
  in
  List.iteri
    (fun i run ->
      check (run.Engine.complete && run.Engine.entries = reference) "%s census #%d histogram" name i)
    (List.rev !outputs);
  if not trace then begin
    info "latency: %d sampled tables decided one at a time" (List.length !lat);
    report_end_to_end ~setup:(setup_median !setup) ~rss ~reps ~p50:(pct_or_fail "latency" 50. !lat)
      ~p99:(pct_or_fail "latency" 99. !lat)
  end

(* ------------------------------------------------------------------ *)
(* synth-climb *)

(* One climb: its candidates, per-candidate latencies (the gaps between
   consecutive scores) and its outputs checked against the pin. *)
let climb ?obs seed =
  let lat = ref [] and traj = Buffer.create 16_384 and scored = ref 0 in
  let last = ref (now ()) in
  let on_score sc =
    let t = now () in
    (match !recorder with
    | Some r -> ignore (Spans.add r ~name:"synth.candidate" ~start:!last ~stop:t ())
    | None -> ());
    lat := (t -. !last) *. 1e3 :: !lat;
    last := t;
    incr scored;
    Buffer.add_string traj (string_of_int sc);
    Buffer.add_char traj ','
  in
  let witness, rep =
    timed
      (fun _ -> float_of_int !scored)
      (fun () ->
        last := now ();
        span "synth.search" (fun () ->
            Synth.search ~seed ~max_iterations:synth_budget ?obs ~on_score ~target:synth_target
              synth_space))
  in
  (match witness with
  | Some w ->
      check
        (span "synth.verify_witness" (fun () ->
             Synth.verify_witness ~target:synth_target w.Synth.objtype))
        "witness of climb %d verifies" seed
  | None -> ());
  let got = (!scored, witness <> None, Digest.to_hex (Digest.string (Buffer.contents traj))) in
  (match List.assoc_opt seed synth_pins with
  | Some pin -> check (got = pin) "climb %d trajectory matches its pin" seed
  | None -> ());
  let n, found, md5 = got in
  info "climb seed %d: %d candidates in %.3f s, witness %b, trajectory %s" seed n rep.wall found md5;
  (rep, !lat)

let synth_pass ?obs ?(between = ignore) ~seed () =
  let k = Array.length synth_panel in
  let order = List.init k (fun i -> synth_panel.((((seed mod k) + k + i) mod k))) in
  let climbs =
    List.map
      (fun s ->
        let c = climb ?obs s in
        between ();
        c)
      order
  in
  let reps = List.map fst climbs in
  ( { wall = sum (fun r -> r.wall) reps; cpu = sum (fun r -> r.cpu) reps; units = sum (fun r -> r.units) reps },
    List.concat_map snd climbs )

let synth_workload ~seed ~seconds ~trace =
  let setup = ref (if trace then [] else setup_samples "synth-climb" 5) in
  let between () = if not trace then setup := setup_samples "synth-climb" 3 @ !setup in
  ignore (setup_work "synth-climb");
  let lats = ref [] in
  let untraced = if trace then seconds /. 2. else seconds in
  let passes =
    repeat_for untraced (fun () ->
        let rep, lat = synth_pass ~between ~seed () in
        lats := lat @ !lats;
        rep)
  in
  let rss = peak_rss_mb "self" in
  info "synth-climb: %d passes of %d climbs, %d latency samples (one per candidate)"
    (List.length passes) (Array.length synth_panel) (List.length !lats);
  if trace then begin
    let obs = Obs.create () in
    let r = Spans.create () in
    let g0 = Gc.quick_stat () in
    let pass = traced r @@ fun () -> Spans.with_span r "run" (fun () -> fst (synth_pass ~obs ~seed ())) in
    let g1 = Gc.quick_stat () in
    gc_layers ~units:pass.units g0 g1;
    let evals = counter obs "synth.evals" in
    layer "synth.evals" evals;
    layer "synth.sym_skips" (counter obs "synth.sym_skips");
    layer "synth.eval_s" (per_unit pass.wall evals);
    layer "kernel.patches" (counter obs "kernel.patches");
    let reused = counter obs "kernel.masks_reused" in
    layer "kernel.masks_reused_ratio"
      (per_unit reused (reused +. counter obs "kernel.masks_invalidated"));
    layer "decide.kernel_evals_per_unit" (per_unit (counter obs "decide.kernel_evals") pass.units);
    layer "decide.partitions_pruned_per_unit"
      (per_unit (counter obs "decide.partitions_pruned") pass.units);
    finish_trace ~workload:"synth-climb" ~seed r ~untraced_cpu_rate:(cpu_rate passes)
      ~traced_cpu_rate:(pass.units /. pass.cpu)
  end
  else
    report_end_to_end ~setup:(setup_median !setup) ~rss ~reps:passes
      ~p50:(pct_or_fail "latency" 50. !lats)
      ~p99:(pct_or_fail "latency" 99. !lats)

(* ------------------------------------------------------------------ *)
(* serve-mix *)

let rcn_exe () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/rcn.exe" in
  if not (Sys.file_exists exe) then failwith ("serve-mix needs " ^ exe);
  exe

type daemon = { pid : int; socket : string }

let rec retry_connect socket t_end =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when now () < t_end ->
      Unix.close fd;
      Unix.sleepf 0.0005;
      retry_connect socket t_end

let call fd req =
  Frame.write fd (Api.Request.to_string req);
  match Frame.read fd with
  | Frame.Frame payload -> Some payload
  | Frame.Eof | Frame.Bad _ -> None

(* Start the daemon and return once it answers a ping: exec, store
   replay, socket bind and the first round trip. *)
let start_daemon ~dir ~store ~env =
  let exe = rcn_exe () in
  let socket = Filename.concat dir "rcn.sock" in
  let out = Unix.openfile (Filename.concat dir "daemon.out") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let err = Unix.openfile (Filename.concat dir "daemon.err") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--socket"; socket; "--store"; store; "--jobs"; "1"; "--fsync" |]
      env Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  let fd = retry_connect socket (now () +. 60.) in
  let pong =
    match call fd Api.Request.Ping with
    | Some p -> ( match Api.Response.of_string p with Ok { body = Api.Response.Pong; _ } -> true | _ -> false)
    | None -> false
  in
  Unix.close fd;
  check pong "daemon answers its first ping";
  { pid; socket }

let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  check (status = Unix.WEXITED 0) "daemon stops cleanly"

let kill_daemon d =
  try
    Unix.kill d.pid Sys.sigkill;
    ignore (Unix.waitpid [] d.pid)
  with Unix.Unix_error _ -> ()

let counters_of_metrics payload =
  match Result.bind (Wire.of_string payload) (fun j -> Wire.field j "stats") with
  | Ok stats -> (
      match Wire.member "counters" stats with
      | Some (Wire.Obj kvs) ->
          List.filter_map
            (fun (k, v) -> match Wire.to_int v with Ok n -> Some (k, float_of_int n) | Error _ -> None)
            kvs
      | _ -> [])
  | Error _ -> []

let scrape socket =
  let fd = retry_connect socket (now () +. 5.) in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  match call fd Api.Request.Metrics with Some p -> counters_of_metrics p | None -> []

(* The first analysis bytes seen for each spec, and the first store-hit
   payload: every later reply must match them byte for byte. *)
type seen = { analysis : string; mutable hit_payload : string option }

let analysis_bytes payload =
  match Result.bind (Wire.of_string payload) (fun j -> Wire.field j "analysis") with
  | Ok a -> Some (Wire.to_string a)
  | Error _ -> None

(* Judge one reply: it decodes, carries no error, and repeats the bytes
   of the first reply for its spec.  [None] (transport failure) fails. *)
let judge firsts kind payload =
  match payload with
  | None -> false
  | Some payload -> (
      match (kind, Api.Response.of_string payload) with
      | Mix.Metrics, Ok { Api.Response.body = Api.Response.Metrics _; _ } -> true
      | (Mix.Hit i | Mix.Miss i), Ok { Api.Response.body = Api.Response.Analysis { from_store; _ }; _ }
        -> (
          match (analysis_bytes payload, Hashtbl.find_opt firsts i) with
          | None, _ -> false
          | Some a, None ->
              Hashtbl.replace firsts i { analysis = a; hit_payload = None };
              not from_store
          | Some a, Some seen -> (
              from_store && a = seen.analysis
              &&
              match seen.hit_payload with
              | None ->
                  seen.hit_payload <- Some payload;
                  true
              | Some p -> p = payload))
      | _ -> false)

(* What the closed loop keeps of one request; it is judged after the
   loop. *)
type reply = {
  kind : Mix.kind;
  id : int;
  t0 : float;
  t1 : float;
  payload : string option;
  window : int;  (** the one-second window the reply arrived in *)
}

type mix = {
  replies : reply list;  (** in arrival order *)
  windows : (float * float) list;  (** wall and daemon CPU seconds, per window *)
}

(* The closed loop: each connection sends the next request of its
   stream as soon as the previous reply arrives, until [seconds] have
   passed; in-flight requests are then drained.  The loop only writes
   pre-encoded requests and keeps the raw replies, so the generator's
   own CPU between a reply and the next request stays small; decoding
   and checking wait until the loop has ended.  The daemon's CPU is
   sampled at every whole second, so throughput can be taken per
   one-second window. *)
let run_mix ~daemon ~wire ~streams ~seconds =
  let conns =
    Array.map (fun stream -> (retry_connect daemon.socket (now () +. 5.), stream, ref None)) streams
  in
  let replies = ref [] and next_req = ref 0 in
  let window = ref 0 and windows = ref [] in
  let send (fd, stream, pending) =
    let kind = Mix.next stream in
    let t0 = now () in
    Frame.write fd (wire kind);
    incr next_req;
    pending := Some (kind, t0, !next_req)
  in
  let receive (fd, _, pending) =
    match !pending with
    | None -> ()
    | Some (kind, t0, id) ->
        pending := None;
        let payload = match Frame.read fd with Frame.Frame s -> Some s | _ -> None in
        let t1 = now () in
        replies := { kind; id; t0; t1; payload; window = !window } :: !replies
  in
  let t_start = now () in
  let t_end = t_start +. seconds in
  let w_start = ref t_start and w_cpu = ref (proc_cpu_s daemon.pid) in
  let close_window t =
    let cpu = proc_cpu_s daemon.pid in
    windows := (t -. !w_start, cpu -. !w_cpu) :: !windows;
    incr window;
    w_start := t;
    w_cpu := cpu
  in
  Array.iter send conns;
  let busy = List.filter (fun (_, _, pending) -> !pending <> None) in
  let rec loop () =
    match busy (Array.to_list conns) with
    | [] -> ()
    | pending ->
        let ready, _, _ = Unix.select (List.map (fun (fd, _, _) -> fd) pending) [] [] 1.0 in
        List.iter
          (fun ((fd, _, _) as c) ->
            if List.mem fd ready then begin
              receive c;
              let t = now () in
              if t -. !w_start >= 1. && t < t_end then close_window t;
              if t < t_end then send c
            end)
          pending;
        loop ()
  in
  loop ();
  close_window (now ());
  Array.iter (fun (fd, _, _) -> Unix.close fd) conns;
  { replies = List.rev !replies; windows = List.rev !windows }

type outcome = { kind : Mix.kind; latency_ms : float; ok : bool }

(* Judge every reply of a loop, each a counted operation, and turn the
   loop's windows into repetitions whose units are the OK replies. *)
let settle firsts m =
  let ok = Array.make (List.length m.windows) 0 in
  let outcomes =
    List.map
      (fun (r : reply) ->
        let good = judge firsts r.kind r.payload in
        check good "serve reply to request %d" r.id;
        if good then ok.(r.window) <- ok.(r.window) + 1;
        { kind = r.kind; latency_ms = (r.t1 -. r.t0) *. 1e3; ok = good })
      m.replies
  in
  (outcomes, List.mapi (fun i (wall, cpu) -> { wall; cpu; units = float_of_int ok.(i) }) m.windows)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Run this process, and the daemon it will spawn, on CPU 0.  On a
   two-vCPU guest an idle vCPU halts, and waking it for every reply made
   round-trip times swing by a fifth between runs; on one CPU the closed
   loop never idles it.  An unpinned run gives other figures, so a run
   that cannot pin fails. *)
let pin_to_cpu0 ~dir =
  let out = Unix.openfile (Filename.concat dir "taskset.out") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let pinned =
    match
      Unix.create_process "taskset"
        [| "taskset"; "-a"; "-p"; "-c"; "0"; string_of_int (Unix.getpid ()) |]
        Unix.stdin out out
    with
    | pid -> snd (Unix.waitpid [] pid) = Unix.WEXITED 0
    | exception Unix.Unix_error _ -> false
  in
  Unix.close out;
  check pinned "client and daemon pinned to CPU 0 with taskset"

let serve_workload ~seed ~seconds ~trace =
  let dir = Filename.concat work_dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  pin_to_cpu0 ~dir;
  let store = Filename.concat dir "store.log" in
  (* Pre-seed the store under keys no request uses, so replay dominates
     the daemon's set-up. *)
  let s = Store.open_store store in
  List.iter
    (fun (key, v) -> Store.put s ~key v)
    (Mix.seed_records ~seed ~count:serve_seed_records ~bytes:serve_record_bytes);
  Store.close s;
  let store_bytes = float_of_int (Unix.stat store).Unix.st_size in
  if trace then begin
    (* The replay alone, timed through the store's public open. *)
    let t0 = now () in
    let s = Store.open_store store in
    let replay = now () -. t0 in
    layer "store.replay_s" replay;
    layer "store.replay_mb_per_s" (per_unit (store_bytes /. 1e6) replay);
    Store.close s
  end;
  let env =
    let base =
      List.filter
        (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
        (Array.to_list (Unix.environment ()))
    in
    (* Traced, the runtime prints its GC totals when the daemon exits. *)
    Array.of_list (if trace then "OCAMLRUNPARAM=v=0x400" :: base else base)
  in
  let daemon = ref None in
  let stop () =
    Option.iter stop_daemon !daemon;
    daemon := None
  in
  Fun.protect ~finally:(fun () -> Option.iter kill_daemon !daemon) @@ fun () ->
  let setups =
    List.init serve_setups (fun _ ->
        stop ();
        let t0 = now () in
        daemon := Some (start_daemon ~dir ~store ~env);
        now () -. t0)
  in
  let d = Option.get !daemon in
  let setup = Stats.median setups in
  info "setup_s: median %.6f s of %d daemon starts over a %.1f MB store" setup serve_setups
    (store_bytes /. 1e6);
  (* Every request's wire bytes, encoded before the loop. *)
  let specs = Mix.specs ~seed ~min_level:serve_min_level serve_space in
  let request kind = Mix.request specs serve_params kind in
  let t0 = now () in
  let wires =
    Array.init (serve_params.hot + serve_spec_pool) (fun i -> Api.Request.to_string (request (Mix.Hit i)))
  in
  let metrics_wire = Api.Request.to_string Api.Request.Metrics in
  let wire = function
    | Mix.Metrics -> metrics_wire
    | Mix.Hit i | Mix.Miss i ->
        if i < Array.length wires then wires.(i) else Api.Request.to_string (request (Mix.Miss i))
  in
  info "serve-mix: %d specs drawn and encoded in %.3f s" (Array.length wires) (now () -. t0);
  (* Warm the hot set: one first-sight analyze per hot spec. *)
  let firsts = Hashtbl.create 1024 in
  let fd = retry_connect d.socket (now () +. 5.) in
  for i = 0 to serve_params.hot - 1 do
    check (judge firsts (Mix.Miss i) (call fd (request (Mix.Miss i)))) "warm-up analyze %d" i
  done;
  Unix.close fd;
  let untraced = if trace then seconds /. 2. else seconds in
  (* The streams run on across both halves of a traced run, so its
     traced half sees fresh first sights too. *)
  let streams = Array.init serve_params.conns (fun conn -> Mix.stream ~seed ~conn serve_params) in
  let m = run_mix ~daemon:d ~wire ~streams ~seconds:untraced in
  let outcomes, windows = settle firsts m in
  let windows = List.filter (fun w -> w.wall >= 0.5) windows in
  let rss = peak_rss_mb (string_of_int d.pid) in
  let count k = List.length (List.filter (fun o -> k o.kind) outcomes) in
  info "serve-mix: %d requests (%d misses, %d metrics) over %d connections; %s requests per 1 s window"
    (List.length outcomes)
    (count (function Mix.Miss _ -> true | _ -> false))
    (count (function Mix.Metrics -> true | _ -> false))
    serve_params.conns
    (String.concat " " (List.map (fun w -> Printf.sprintf "%.0f" w.units) windows));
  let lat outcomes = List.map (fun o -> o.latency_ms) outcomes in
  if not trace then begin
    stop ();
    report_end_to_end ~setup ~rss ~reps:windows
      ~p50:(pct_or_fail "latency" 50. (lat outcomes))
      ~p99:(pct_or_fail "latency" 99. (lat outcomes))
  end
  else begin
    let r = Spans.create () in
    let before = scrape d.socket in
    let t0 = now () in
    let traced_mix = run_mix ~daemon:d ~wire ~streams ~seconds:untraced in
    let run = Spans.add r ~name:"run" ~start:t0 ~stop:(now ()) () in
    (* Each round trip is a span of its path, added once the loop has
       ended, so the recorder stays out of the loop. *)
    List.iter
      (fun (x : reply) ->
        let name = match x.kind with Mix.Miss _ -> "serve.engine" | _ -> "serve.fast_path" in
        ignore (Spans.add r ~parent:run ~req:x.id ~name ~start:x.t0 ~stop:x.t1 ()))
      traced_mix.replies;
    let touts, twindows = settle firsts traced_mix in
    (* The client codec, timed on the traced loop's own requests and
       replies once the loop has ended. *)
    traced r (fun () ->
        Spans.with_span r "codec" @@ fun () ->
        List.iter
          (fun (x : reply) ->
            ignore (span ~req:x.id "wire.encode" (fun () -> Api.Request.to_string (request x.kind)));
            Option.iter
              (fun p -> ignore (span ~req:x.id "wire.decode" (fun () -> Api.Response.of_string p)))
              x.payload)
          traced_mix.replies);
    let after = scrape d.socket in
    let delta name =
      Option.value ~default:0. (List.assoc_opt name after)
      -. Option.value ~default:0. (List.assoc_opt name before)
    in
    let n = float_of_int (List.length touts) in
    let tok = sum (fun w -> w.units) twindows in
    (* Latency by path over both halves of the run: the client-side
       times do not depend on the recorder, and misses are few. *)
    let all = outcomes @ touts in
    let lat_of k = lat (List.filter (fun o -> k o.kind) all) in
    let fast = lat_of (function Mix.Miss _ -> false | _ -> true) in
    let engine = lat_of (function Mix.Miss _ -> true | _ -> false) in
    let pct = pct_or_fail in
    info "serve latency samples: %d fast path, %d engine" (List.length fast) (List.length engine);
    layer "serve.fast_path_ms.p50" (pct "serve.fast_path_ms" 50. fast);
    layer "serve.fast_path_ms.p99" (pct "serve.fast_path_ms" 99. fast);
    layer "serve.engine_ms.p50" (pct "serve.engine_ms" 50. engine);
    layer "serve.engine_ms.p99" (pct "serve.engine_ms" 99. engine);
    layer "serve.busy" (delta "serve.busy");
    let hits = delta "store.hits" and misses = delta "store.misses" in
    layer "store.hit_ratio" (per_unit hits (hits +. misses));
    layer "store.puts" (delta "store.puts");
    layer "store.loaded" (Option.value ~default:0. (List.assoc_opt "store.loaded" after));
    layer "decide.kernel_evals_per_unit" (per_unit (delta "decide.kernel_evals") tok);
    layer "decide.partitions_pruned_per_unit" (per_unit (delta "decide.partitions_pruned") tok);
    let self = Spans.self_by_name (Spans.spans r) in
    let self_of name = Option.value ~default:0. (List.assoc_opt name self) in
    layer "wire.codec_us_per_request" (per_unit ((self_of "wire.encode" +. self_of "wire.decode") *. 1e6) n);
    let bytes = sum (fun (x : reply) -> float_of_int (Option.fold ~none:0 ~some:String.length x.payload)) in
    layer "wire.bytes_per_response" (per_unit (bytes traced_mix.replies) n);
    (* Durable appends of the mix's record size, timed through Fsio. *)
    let record =
      Hashtbl.fold (fun _ s acc -> acc + String.length s.analysis) firsts 0
      / max 1 (Hashtbl.length firsts)
    in
    let log = Fsio.open_log (Filename.concat dir "fsio.log") in
    let payload = Fsio.Record.encode ~magic:"pbench" ~tag:"r" (String.make record 'x') in
    let appends = ref [] and fsyncs = ref [] in
    traced r (fun () ->
        Spans.with_span r "fsio" @@ fun () ->
        for _ = 1 to fsio_samples do
          let t0 = now () in
          span "fsio.append" (fun () -> Fsio.append log payload);
          let t1 = now () in
          span "fsio.fsync" (fun () -> Fsio.fsync log);
          appends := (t1 -. t0) :: !appends;
          fsyncs := (now () -. t1) :: !fsyncs
        done);
    Fsio.close log;
    layer "fsio.append_s.p50" (pct "fsio.append_s" 50. !appends);
    layer "fsio.fsync_s.p50" (pct "fsio.fsync_s" 50. !fsyncs);
    layer "fsio.fsync_s.p99" (pct "fsio.fsync_s" 99. !fsyncs);
    stop ();
    (* GC totals over the daemon's life, printed by the runtime at exit,
       per request it answered. *)
    let gc =
      List.filter_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ k; v ] -> Option.map (fun v -> (String.trim k, v)) (float_of_string_opt (String.trim v))
          | _ -> None)
        (In_channel.with_open_text (Filename.concat dir "daemon.err") In_channel.input_lines)
    in
    let g k = Option.value ~default:0. (List.assoc_opt k gc) in
    let answered = float_of_int (serve_params.hot + List.length all) in
    layer "gc.minor_words_per_unit" (per_unit (g "minor_words") answered);
    layer "gc.major_words_per_unit" (per_unit (g "major_words") answered);
    layer "gc.promoted_share" (per_unit (g "promoted_words") (g "minor_words"));
    layer "gc.major_collections" (g "major_collections");
    finish_trace ~workload:"serve-mix" ~seed r ~untraced_cpu_rate:(cpu_rate windows)
      ~traced_cpu_rate:(cpu_rate (List.filter (fun w -> w.wall >= 0.5) twindows))
  end

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (census-full|census-sym|synth-climb|serve-mix) --seed N \
     --seconds S --trace 0|1\n       main.exe --setup-probe WORKLOAD\n       main.exe \
     --latency-probe WORKLOAD --seed N";
  exit 2

let () =
  (* An interrupted run still stops its daemon and removes its files:
     the signal becomes an exception that unwinds through the cleanup. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> failwith "interrupted")))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key -> parse ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  match (List.assoc_opt "--setup-probe" opts, List.assoc_opt "--latency-probe" opts) with
  | Some w, _ -> setup_probe w
  | None, Some w -> (
      match Option.bind (List.assoc_opt "--seed" opts) int_of_string_opt with
      | Some seed -> latency_probe w seed
      | None -> usage ())
  | None, None ->
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let workload = get "--workload" and seed = int "--seed" and seconds = int "--seconds" in
      let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
      if seconds < 1 then usage ();
      let seconds = float_of_int seconds in
      info "perfbench: workload %s, seed %d, %g s, trace %b" workload seed seconds trace;
      (match workload with
      | "census-full" -> census_workload ~sym:false ~seed ~seconds ~trace
      | "census-sym" -> census_workload ~sym:true ~seed ~seconds ~trace
      | "synth-climb" -> synth_workload ~seed ~seconds ~trace
      | "serve-mix" -> serve_workload ~seed ~seconds ~trace
      | _ -> usage ());
      if trace then report_layers ();
      print_result ()
