(* Order statistics for the benchmark's samples.

   The reporting rule: a timing is given as its median and as the
   highest percentile that still has at least [min_beyond] samples
   strictly above it, so a "p99" never rests on one or two outliers.
   [percentile] enforces that rule by answering [None] when the sample
   is too small for the asked-for rank. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  [None] unless at least [min_beyond]
   samples lie beyond that rank. *)
let percentile ~p xs =
  if p <= 0. || p >= 100. then invalid_arg "Stats.percentile: p outside (0, 100)";
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then None
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
    if n - rank >= min_beyond then Some a.(rank - 1) else None

let maximum xs =
  match xs with
  | [] -> invalid_arg "Stats.maximum: no samples"
  | x :: rest -> List.fold_left Float.max x rest
