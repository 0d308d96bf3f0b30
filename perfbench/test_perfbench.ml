(* Tests for the benchmark's own logic: seeded inputs, the percentile
   rule and span self time. *)

open Perfbench

let space = { Synth.num_values = 3; num_rws = 2; num_responses = 3 }
let params = { Mix.hot = 16; conns = 2; miss_share = 0.2; metrics_share = 0.1; cap = 3 }

let test_stream_seeded () =
  let render seed conn = Mix.render ~seed ~conn ~count:200 ~min_level:3 space params in
  Alcotest.(check string) "same seed, same bytes" (render 7 0) (render 7 0);
  Alcotest.(check bool) "other seed, other bytes" true (render 7 0 <> render 8 0);
  Alcotest.(check bool) "other connection, other bytes" true (render 7 0 <> render 7 1)

let test_stream_misses_distinct () =
  let specs = Mix.specs ~seed:3 ~min_level:3 space in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun conn ->
      let s = Mix.stream ~seed:3 ~conn params in
      for _ = 1 to 300 do
        match Mix.next s with
        | Mix.Miss i ->
            Alcotest.(check bool) "miss index past the hot set" true (i >= params.hot);
            Alcotest.(check bool) "each first sight is new" false (Hashtbl.mem seen i);
            Hashtbl.replace seen i ();
            ignore (Mix.spec specs i)
        | Mix.Hit i -> Alcotest.(check bool) "hit in the hot set" true (i < params.hot)
        | Mix.Metrics -> ()
      done)
    [ 0; 1 ];
  let all = List.init 100 (Mix.spec specs) in
  Alcotest.(check int) "specs pairwise distinct" 100 (List.length (List.sort_uniq compare all))

let test_sample_seeded () =
  let a = Mix.sample ~seed:5 ~size:46_656 ~count:200 in
  Alcotest.(check (array int)) "same seed, same sample" a (Mix.sample ~seed:5 ~size:46_656 ~count:200);
  Alcotest.(check bool) "other seed, other sample" true (a <> Mix.sample ~seed:6 ~size:46_656 ~count:200);
  Alcotest.(check int) "distinct" 200 (List.length (List.sort_uniq compare (Array.to_list a)));
  Alcotest.(check bool) "in range" true (Array.for_all (fun i -> i >= 0 && i < 46_656) a)

let test_seed_records () =
  let r s = Mix.seed_records ~seed:s ~count:50 ~bytes:32 in
  Alcotest.(check bool) "same seed, same records" true (r 1 = r 1);
  Alcotest.(check bool) "other seed, other records" true (r 1 <> r 2)

let samples n = List.init n (fun i -> float_of_int (i + 1))
let opt = Alcotest.(option (float 1e-12))

let test_percentile_rule () =
  Alcotest.(check opt) "p50 of 20: ten beyond" (Some 10.) (Stats.percentile ~p:50. (samples 20));
  Alcotest.(check opt) "p50 of 19: nine beyond" None (Stats.percentile ~p:50. (samples 19));
  Alcotest.(check opt) "p99 of 1000: ten beyond" (Some 990.) (Stats.percentile ~p:99. (samples 1000));
  Alcotest.(check opt) "p99 of 999: nine beyond" None (Stats.percentile ~p:99. (samples 999));
  Alcotest.(check opt) "p90 of 100" (Some 90.) (Stats.percentile ~p:90. (samples 100));
  Alcotest.(check opt) "empty" None (Stats.percentile ~p:50. []);
  Alcotest.(check opt) "order-free" (Some 10.) (Stats.percentile ~p:50. (List.rev (samples 20)))

let test_median () =
  Alcotest.(check (float 1e-12)) "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-12)) "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

(* run [0, 10]
     a [1, 5]         self 4 - (child b [2, 3] = 1) = 3
       b [2, 3]       self 1
     c [4, 8]         overlaps a on [4, 5]; self 4 - (d [6, 9] clipped to [6, 8] = 2) = 2
       d [6, 9]       self 3 (clipping is the parent's business)
   run's children cover [1, 8] = 7, so run's self is 3. *)
let test_self_time () =
  let r = Spans.create ~clock:(fun () -> 0.) () in
  let run = Spans.add r ~name:"run" ~start:0. ~stop:10. () in
  let a = Spans.add r ~parent:run ~name:"a" ~start:1. ~stop:5. () in
  ignore (Spans.add r ~parent:a ~name:"b" ~start:2. ~stop:3. ());
  let c = Spans.add r ~parent:run ~name:"c" ~start:4. ~stop:8. () in
  ignore (Spans.add r ~parent:c ~name:"d" ~start:6. ~stop:9. ());
  let selfs = List.map (fun (s, self) -> (s.Spans.name, self)) (Spans.self_times (Spans.spans r)) in
  Alcotest.(check (list (pair string (float 1e-12))))
    "self times"
    [ ("run", 3.); ("a", 3.); ("b", 1.); ("c", 2.); ("d", 3.) ]
    selfs

let test_with_span_nesting () =
  let t = ref 0. in
  let clock () =
    t := !t +. 1.;
    !t
  in
  let r = Spans.create ~clock () in
  Spans.with_span r "outer" (fun () -> Spans.with_span r ~req:4 "inner" (fun () -> ()));
  match Spans.spans r with
  | [ outer; inner ] ->
      Alcotest.(check (option int)) "inner's parent" (Some outer.Spans.id) inner.Spans.parent;
      Alcotest.(check (option int)) "request id kept" (Some 4) inner.Spans.req;
      Alcotest.(check (float 1e-12)) "outer self" 2. (List.assoc "outer" (Spans.self_by_name (Spans.spans r)))
  | _ -> Alcotest.fail "two spans expected"

(* Attribution counts leaf spans only.  A wrapper whose children leave
   a gap is flagged; the wrapper itself explains nothing.
     census [0, 10]          wrapper
       sweep [0, 2]          leaf
       chunks [2, 7]         leaf; [7, 10] is uncovered
     replay [10, 20]
       compile [10, 15], search [15, 19.5]   leaves; [19.5, 20] uncovered *)
let test_attribution () =
  let r = Spans.create ~clock:(fun () -> 0.) () in
  let census = Spans.add r ~name:"census" ~start:0. ~stop:10. () in
  ignore (Spans.add r ~parent:census ~name:"sweep" ~start:0. ~stop:2. ());
  ignore (Spans.add r ~parent:census ~name:"chunks" ~start:2. ~stop:7. ());
  let replay = Spans.add r ~name:"replay" ~start:10. ~stop:20. () in
  ignore (Spans.add r ~parent:replay ~name:"compile" ~start:10. ~stop:15. ());
  ignore (Spans.add r ~parent:replay ~name:"search" ~start:15. ~stop:19.5 ());
  let share = Spans.unattributed (Spans.spans r) in
  Alcotest.(check (float 1e-12)) "gaps over root wall" (3.5 /. 20.) share;
  Alcotest.(check bool) "flagged" true (Spans.flagged share);
  (* A wrapper with one child: only the child counts, never the wrapper. *)
  let r = Spans.create ~clock:(fun () -> 0.) () in
  let run = Spans.add r ~name:"run" ~start:0. ~stop:10. () in
  let search = Spans.add r ~parent:run ~name:"search" ~start:0. ~stop:10. () in
  ignore (Spans.add r ~parent:search ~name:"step" ~start:0. ~stop:5. ());
  Alcotest.(check (float 1e-12)) "wrapper self time unattributed" 0.5 (Spans.unattributed (Spans.spans r));
  (* Leaves covering 95% pass. *)
  let r = Spans.create ~clock:(fun () -> 0.) () in
  let run = Spans.add r ~name:"run" ~start:0. ~stop:20. () in
  ignore (Spans.add r ~parent:run ~name:"a" ~start:0. ~stop:10. ());
  ignore (Spans.add r ~parent:run ~name:"b" ~start:9. ~stop:19. ());
  let share = Spans.unattributed (Spans.spans r) in
  Alcotest.(check (float 1e-12)) "overlapping leaves count once" 0.05 share;
  Alcotest.(check bool) "not flagged" false (Spans.flagged share)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "serve-mix stream is seeded" `Quick test_stream_seeded;
          Alcotest.test_case "first sights are distinct" `Quick test_stream_misses_distinct;
          Alcotest.test_case "traced sample is seeded" `Quick test_sample_seeded;
          Alcotest.test_case "store seed records are seeded" `Quick test_seed_records;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentiles need ten samples beyond" `Quick test_percentile_rule;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time on a nested tree" `Quick test_self_time;
          Alcotest.test_case "with_span nests and keeps request ids" `Quick test_with_span_nesting;
          Alcotest.test_case "attribution counts leaves and flags gaps" `Quick test_attribution;
        ] );
    ]
