(* Order statistics for latency samples and run summaries. *)

let sorted a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* 1-based nearest rank of percentile [p] in [0, 1] over [n] samples;
   the epsilon keeps 0.999 * 10000 at rank 9990 despite binary
   rounding. *)
let rank ~n p = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))

(* Nearest-rank percentile of an already sorted array. *)
let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = rank ~n p in
  s.(max 0 (min (n - 1) (rank - 1)))

let percentile a p = percentile_sorted (sorted a) p
let median a = percentile a 0.5

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Samples strictly above the nearest-rank [p] percentile. *)
let beyond ~n p = n - rank ~n p

(* The tail percentile a workload reports: the highest rung of the
   ladder that still has at least ten samples beyond it. With fewer
   than 100 samples no rung qualifies and the median is the tail. The
   ladder stops at p99: on a shared host, deeper percentiles are set by
   the host's state during the run (p99.99 of warm_zipf spread 34 %
   across five runs, p99.9 22-29 % across ten). *)
let tail_ladder = [ 0.9; 0.99 ]

let tail_percentile n =
  List.fold_left
    (fun acc p -> if beyond ~n p >= 10 then p else acc)
    0.5 tail_ladder

(* The reported tail of a run: percentile [p] over each of [k]
   consecutive segments of the samples (in request order), and the
   median of those k values. k is the largest odd number up to 15 that
   still leaves every segment ten samples beyond [p]. A burst of slow
   requests then moves a few segments' tails, not the reported one.
   Returns (k, tail). *)
let max_segments = 15

let segmented_tail samples p =
  let n = Array.length samples in
  let rec pick k = if k <= 1 || beyond ~n:(n / k) p >= 10 then max k 1 else pick (k - 2) in
  let k = pick max_segments in
  let segment i = Array.sub samples (i * n / k) (((i + 1) * n / k) - (i * n / k)) in
  (k, median (Array.init k (fun i -> percentile (segment i) p)))
