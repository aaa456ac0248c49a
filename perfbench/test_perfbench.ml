(* Tests of the benchmark's own helpers: request generation, the tail
   percentile rule, the reply checkers and span self-time arithmetic. *)

module Gen = Perfbench.Gen
module Stats = Perfbench.Stats
module Span = Perfbench.Span
module Check = Perfbench.Check
module Plan = Hppa_server.Plan

let check_ok what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: unexpected failure: %s" what e

let check_error what = function
  | Ok () -> Alcotest.failf "%s: corruption not detected" what
  | Error _ -> ()

(* ---- generator ---- *)

let distinct a =
  let h = Hashtbl.create 64 in
  Array.iter (fun l -> Hashtbl.replace h l ()) a;
  Hashtbl.length h

let test_gen_deterministic () =
  List.iter
    (fun w ->
      let a = Gen.generate w ~seed:5 ~seconds:1 and b = Gen.generate w ~seed:5 ~seconds:1 in
      Alcotest.(check string) (Gen.name w ^ " same seed") (Gen.digest a) (Gen.digest b);
      Alcotest.(check (array string)) (Gen.name w ^ " same lines") a.Gen.timed b.Gen.timed;
      let c = Gen.generate w ~seed:6 ~seconds:1 in
      Alcotest.(check bool) (Gen.name w ^ " other seed") true (Gen.digest a <> Gen.digest c);
      Alcotest.(check int)
        (Gen.name w ^ " count")
        (Gen.requests w ~seconds:1) (Array.length a.Gen.timed))
    Gen.workloads

let test_gen_shapes () =
  let z = Gen.generate Gen.Warm_zipf ~seed:3 ~seconds:1 in
  let pre = Hashtbl.create 64 in
  Array.iter (fun l -> Hashtbl.replace pre l ()) z.Gen.warmup;
  Alcotest.(check bool) "zipf prefill covers every timed line" true
    (Array.for_all (Hashtbl.mem pre) z.Gen.timed);
  let c = Gen.generate Gen.Cold32 ~seed:3 ~seconds:1 in
  Alcotest.(check int) "cold32 keys distinct" (Array.length c.Gen.timed) (distinct c.Gen.timed);
  let c' = Gen.generate Gen.Cold32 ~seed:4 ~seconds:1 in
  let sorted a = List.sort compare (Array.to_list a) in
  Alcotest.(check (list string)) "cold32 seeds reorder one key pool" (sorted c.Gen.timed)
    (sorted c'.Gen.timed);
  Alcotest.(check bool) "cold32 keys outside warm-up" true
    (Array.for_all (fun l -> not (Array.mem l c.Gen.warmup)) c.Gen.timed);
  let e = Gen.generate Gen.Exec_mix ~seed:3 ~seconds:1 in
  Array.iter
    (fun l ->
      match Hppa_server.Protocol.parse l with
      | Ok _ -> ()
      | Error err -> Alcotest.failf "exec_mix line %S does not parse: %s" l err)
    e.Gen.timed;
  Alcotest.(check int) "exec_mix lines distinct" (Array.length e.Gen.timed) (distinct e.Gen.timed)

(* ---- percentile rule ---- *)

let test_tail_rule () =
  let cases = [ (50, 0.5); (99, 0.5); (100, 0.9); (999, 0.9); (1000, 0.99); (9999, 0.99);
                (10000, 0.99); (250_000, 0.99) ] in
  List.iter
    (fun (n, p) -> Alcotest.(check (float 0.0)) (Printf.sprintf "tail for n=%d" n) p (Stats.tail_percentile n))
    cases;
  List.iter
    (fun n ->
      let p = Stats.tail_percentile n in
      if p > 0.5 then
        Alcotest.(check bool) (Printf.sprintf "ten beyond at n=%d" n) true (Stats.beyond ~n p >= 10))
    [ 100; 101; 1234; 10000; 99_999 ];
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50" 500.0 (Stats.percentile a 0.5);
  Alcotest.(check (float 0.0)) "p99" 990.0 (Stats.percentile a 0.99);
  Alcotest.(check (float 0.0)) "p100" 1000.0 (Stats.percentile a 1.0);
  (* a burst inside one of fifteen segments sets the whole-run p99 but
     not the median of the segment tails *)
  let lat = Array.init 30_000 (fun i -> if i >= 1_500 && i < 1_900 then 1000.0 else 10.0) in
  Alcotest.(check (float 0.0)) "whole-run p99" 1000.0 (Stats.percentile lat 0.99);
  Alcotest.(check (pair int (float 0.0))) "fifteen segments" (15, 10.0) (Stats.segmented_tail lat 0.99);
  (* segments must keep ten samples beyond the percentile *)
  List.iter
    (fun (n, p, k) ->
      Alcotest.(check int) (Printf.sprintf "segments for n=%d" n) k
        (fst (Stats.segmented_tail (Array.make n 1.0) p)))
    [ (15_600, 0.99, 15); (14_000, 0.99, 13); (240, 0.9, 1); (99, 0.5, 3) ];
  let lat = Array.init 240 (fun i -> float_of_int ((i * 7919) mod 240)) in
  Alcotest.(check (pair int (float 0.0))) "one segment is the plain percentile"
    (1, Stats.percentile lat 0.9) (Stats.segmented_tail lat 0.9)

(* ---- reply checkers ---- *)

let ok_reply = function
  | Ok (payload, _) -> "OK " ^ payload
  | Error e -> Alcotest.failf "plan failed: %s" e

(* Replace the first occurrence of [sub] in [s]. *)
let replace_first s sub by =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then Alcotest.failf "%S not in %S" sub s
    else if String.sub s i m = sub then String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)
    else go (i + 1)
  in
  go 0

let test_mul_checker () =
  List.iter
    (fun n ->
      let line = Printf.sprintf "MUL %ld" n in
      check_ok line (Check.reply line (ok_reply (Plan.mul n))))
    [ 0l; 1l; -1l; 7l; 59l; 625l; -625l; 1024l; 123456789l; Int32.min_int; Int32.max_int ];
  let good = ok_reply (Plan.mul 625l) in
  (* the last step a5=4*a4+a4 (x5) corrupted to x3: no longer 625 *)
  check_error "chain coefficient" (Check.reply "MUL 625" (replace_first good "4*a4+a4" "2*a4+a4"));
  check_error "wrong constant" (Check.reply "MUL 626" good);
  check_error "steps" (Check.reply "MUL 625" (replace_first good "steps=" "steps=1"))

let test_div_checker () =
  List.iter
    (fun d ->
      let line = Printf.sprintf "DIV %ld" d in
      check_ok line (Check.reply line (ok_reply (Plan.div d))))
    [ 1l; 3l; 7l; 10l; 11l; 64l; -1l; -3l; -7l; -64l; 1_000_003l; Int32.min_int ];
  let good = ok_reply (Plan.div 10l) in
  check_error "wrong divisor" (Check.reply "DIV 9" (replace_first good "d=10" "d=9"));
  (* the power-of-two divide's shift amount, off by one *)
  let pow = ok_reply (Plan.div 64l) in
  check_error "shift amount" (Check.reply "DIV 64" (replace_first pow " 6," " 5,"))

let test_exec_checkers () =
  let mach = Hppa.Millicode.machine () in
  let fuel = 1_000_000 in
  let eval_line = "EVAL divI -1000 7" in
  let r =
    match Plan.eval mach ~fuel "divI" [ -1000l; 7l ] with
    | Ok p -> "OK " ^ p
    | Error e -> Alcotest.failf "eval: %s" e
  in
  check_ok eval_line (Check.reply eval_line r);
  check_error "eval remainder" (Check.reply eval_line (replace_first r "ret1=-6" "ret1=6"));
  let mul = ok_reply (Plan.w64 mach ~fuel Hppa_w64.Mul ~signed:true (-3L) 0x7fff_ffff_ffffL) in
  check_ok "W64MUL s" (Check.reply "W64MUL s -3 140737488355327" mul);
  let div = ok_reply (Plan.w64 mach ~fuel Hppa_w64.Div ~signed:false (-1L) 10L) in
  check_ok "W64DIV u" (Check.reply "W64DIV u -1 10" div);
  check_error "W64DIV r" (Check.reply "W64DIV u -1 10" (replace_first div "r=5" "r=4"));
  let divl = ok_reply (Plan.divl mach ~fuel ~xhi:3L ~xlo:(-5L) 1_000_000_007L) in
  check_ok "W64DIVL" (Check.reply "W64DIVL 3 -5 1000000007" divl);
  check_error "W64DIVL q" (Check.reply "W64DIVL 3 -5 1000000008" divl);
  let lanes = Plan.w64_batch mach ~fuel Hppa_w64.Rem ~signed:true [ (100L, 7L); (-100L, 7L) ] in
  let batch = String.concat "\n" ("OK W64REMB k=2" :: List.map ok_reply lanes) in
  check_ok "W64REMB" (Check.reply "W64REMB s 100 7 -100 7" batch);
  check_error "W64REMB lane" (Check.reply "W64REMB s 100 7 -100 9" batch);
  Alcotest.(check int) "cycles per lane" 2 (List.length (Check.cycles batch))

(* ---- spans ---- *)

let span id parent a b =
  { Span.id; name = Printf.sprintf "s%d" id; req = 0; parent; start_ns = Int64.of_int a;
    stop_ns = Int64.of_int b }

let test_self_time () =
  (* parent 0..100; children overlap (10..30, 20..50) and one sticks out
     past the parent's end (90..120): covered = 40 + 10 *)
  let spans = [ span 0 (-1) 0 100; span 1 0 10 30; span 2 0 20 50; span 3 0 90 120; span 4 1 12 14 ] in
  let self = List.map (fun (s, t) -> (s.Span.id, t)) (Span.self_times spans) in
  Alcotest.(check (float 0.0)) "parent self" 50.0 (List.assoc 0 self);
  Alcotest.(check (float 0.0)) "child with grandchild" 18.0 (List.assoc 1 self);
  Alcotest.(check (float 0.0)) "leaf" 30.0 (List.assoc 2 self);
  Alcotest.(check int64) "empty union" 0L (Span.covered ~lo:0L ~hi:10L []);
  let tr = Span.create ~enabled:true () in
  let v =
    Span.with_span tr "outer" ~req:0 (fun () ->
        Span.with_span tr "inner" ~req:0 (fun () -> 1) + Span.with_span tr "inner" ~req:0 (fun () -> 2))
  in
  Alcotest.(check int) "value" 3 v;
  let total name = Option.get (Span.find tr name) in
  Alcotest.(check int) "inner count" 2 (total "inner").Span.count;
  let o = total "outer" in
  Alcotest.(check (float 1e-6)) "outer self = incl - inner"
    (o.Span.incl_ns -. (total "inner").Span.incl_ns) o.Span.self_ns;
  Alcotest.(check int) "kept spans" 3 (List.length (Span.kept tr));
  let off = Span.create ~enabled:false () in
  Alcotest.(check int) "disabled runs f" 7 (Span.with_span off "x" ~req:0 (fun () -> 7));
  Alcotest.(check bool) "disabled records nothing" true (Span.find off "x" = None)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "generator deterministic per seed" `Quick test_gen_deterministic;
          Alcotest.test_case "workload shapes" `Quick test_gen_shapes;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "MUL chain replay checker" `Quick test_mul_checker;
          Alcotest.test_case "DIV code checker" `Quick test_div_checker;
          Alcotest.test_case "EVAL/W64 checkers" `Quick test_exec_checkers;
          Alcotest.test_case "span self time" `Quick test_self_time;
        ] );
    ]
