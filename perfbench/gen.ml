(* Deterministic request lists for the three benchmark workloads. Every
   line is generated from the seed alone; the server only ever sees the
   generated lines. *)

module Prng = Hppa_dist.Prng
module Operand_dist = Hppa_dist.Operand_dist

type workload = Warm_zipf | Cold32 | Exec_mix

let workloads = [ Warm_zipf; Cold32; Exec_mix ]

let name = function
  | Warm_zipf -> "warm_zipf"
  | Cold32 -> "cold32"
  | Exec_mix -> "exec_mix"

let of_string s = List.find_opt (fun w -> name w = s) workloads

(* Load shape per workload. [rate] converts the run length into a fixed
   request count (a run sends exactly [rate * seconds] timed requests,
   so every run with one seed does identical work); it was sized so a
   timed phase lasts about [seconds] on a 2-core x86-64 host. *)
type shape = { conns : int; depth : int; rate : int }

let shape = function
  | Warm_zipf -> { conns = 1; depth = 1; rate = 35_000 }
  | Cold32 -> { conns = 1; depth = 1; rate = 20 }
  | Exec_mix -> { conns = 1; depth = 1; rate = 1_300 }

type t = {
  workload : workload;
  seed : int;
  warmup : string array;
      (* sent before the timed phase, untimed: the zipf prefill or the
         lazy-init requests on keys outside the timed set *)
  timed : string array;
}

let requests w ~seconds = max 1 (seconds * (shape w).rate)

let digest t =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (name t.workload :: Array.to_list t.warmup
          @ ("--" :: Array.to_list t.timed))))

let prng w seed =
  let tag = match w with Warm_zipf -> 1L | Cold32 -> 2L | Exec_mix -> 3L in
  Prng.create (Int64.add (Int64.mul (Int64.of_int seed) 7919L) tag)

(* warm_zipf: the shape of [hppa-serve load --dist zipf] — constants
   rank+1 for zipf(1.1) ranks over 1..1000, 70% MUL / 30% DIV. The
   prefill sends each distinct timed line once, so every timed request
   is a cache hit. *)
let warm_zipf g n =
  let timed =
    Array.init n (fun _ ->
        let c = Operand_dist.zipf_rank ~support:1000 g + 1 in
        if Prng.bool g ~p:0.7 then Printf.sprintf "MUL %d" c
        else Printf.sprintf "DIV %d" c)
  in
  let seen = Hashtbl.create 2048 in
  let prefill =
    Array.to_list timed
    |> List.filter (fun l ->
           if Hashtbl.mem seen l then false
           else (
             Hashtbl.replace seen l ();
             true))
  in
  (Array.of_list prefill, timed)

(* cold32: alternating MUL/DIV over distinct uniformly random nonzero
   32-bit constants of both signs. One constant costs anywhere from 1 to
   110 ms to plan, so a few hundred keys drawn afresh per seed would make
   the seed, not the program, set the run's cost. The key set is
   therefore one fixed pool per request count, and the seed shuffles the
   order it is sent in: every run does the same work. The warm-up
   touches the lazily built chain tables and selector state on keys the
   timed list never uses. *)
let cold32_warmup = [| "MUL 7"; "DIV 7"; "MUL -7"; "DIV -7" |]
let cold32_pool_seed = 0x636f6c643332L

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int_range g 0 i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let cold32 g n =
  let pool = Prng.create cold32_pool_seed in
  let seen = Hashtbl.create (2 * n) in
  Array.iter (fun l -> Hashtbl.replace seen l ()) cold32_warmup;
  let rec fresh verb =
    let c = Prng.word pool in
    let l = Printf.sprintf "%s %ld" verb c in
    if c = 0l || Hashtbl.mem seen l then fresh verb
    else (
      Hashtbl.replace seen l ();
      l)
  in
  let timed = Array.init n (fun i -> fresh (if i land 1 = 0 then "MUL" else "DIV")) in
  shuffle g timed;
  (cold32_warmup, timed)

(* exec_mix: every request executes on the simulated machine, with
   operands never repeated, so no W64 request hits the plan cache
   (EVAL is never cached). Class shares are chosen so that the median
   falls inside the scalar-W64 cost mode and the p99.9 tail (the
   highest percentile with ten samples beyond it at the default run
   length) inside the 16-lane batch mode; see README.md. *)
let exec_shares = [ ("eval", 0.40); ("w64", 0.48); ("divl", 0.10); ("batch", 0.02) ]
let batch_lanes = 16

let exec_warmup =
  [|
    "EVAL mulI 3 5";
    "EVAL divI 100 7";
    "W64MUL u 3 5";
    "W64DIV s 100 7";
    "W64REM u 100 7";
    "W64DIVL 0 100 7";
    "W64DIVB u 100 7 200 9";
  |]

let exec_mix g n =
  let seen = Hashtbl.create (4 * n) in
  let claim key =
    if Hashtbl.mem seen key then false
    else (
      Hashtbl.replace seen key ();
      true)
  in
  (* warm-up operand keys are reserved too *)
  List.iter
    (fun k -> ignore (claim k))
    [ "W64MUL u 3 5"; "W64DIV s 100 7"; "W64REM u 100 7"; "W64DIVL 0 100 7";
      "W64DIV u 100 7"; "W64DIV u 200 9" ];
  let sign () = if Prng.bool g ~p:0.5 then "s" else "u" in
  let w64_verb () =
    match Prng.int_range g 0 2 with 0 -> "W64MUL" | 1 -> "W64DIV" | _ -> "W64REM"
  in
  let rec pair verb sg =
    let x, y = Operand_dist.w64_pair g in
    if claim (Printf.sprintf "%s %s %Ld %Ld" verb sg x y) then (x, y)
    else pair verb sg
  in
  let rec eval () =
    let x, y = Operand_dist.figure5_pair g in
    let l =
      if Prng.bool g ~p:0.5 then Printf.sprintf "EVAL mulI %ld %ld" x y
      else
        (* divide the larger magnitude by the smaller, never by zero *)
        let a, b = if Int32.abs x >= Int32.abs y then (x, y) else (y, x) in
        Printf.sprintf "EVAL divI %ld %ld" a (if b = 0l then 1l else b)
    in
    if claim l then l else eval ()
  in
  let rec divl () =
    let y = Prng.next64 g in
    let xhi = Int64.unsigned_rem (Prng.next64 g) (if y = 0L then 1L else y) in
    let xlo = Prng.next64 g in
    (* xhi < y (unsigned) keeps the quotient within one dword *)
    if y = 0L || not (claim (Printf.sprintf "W64DIVL %Ld %Ld %Ld" xhi xlo y))
    then divl ()
    else Printf.sprintf "W64DIVL %Ld %Ld %Ld" xhi xlo y
  in
  let cut k = List.assoc k exec_shares in
  let c_eval = cut "eval" in
  let c_w64 = c_eval +. cut "w64" in
  let c_divl = c_w64 +. cut "divl" in
  let timed =
    Array.init n (fun _ ->
        let u = Prng.float01 g in
        if u < c_eval then eval ()
        else if u < c_w64 then (
          let verb = w64_verb () in
          let sg = sign () in
          let x, y = pair verb sg in
          Printf.sprintf "%s %s %Ld %Ld" verb sg x y)
        else if u < c_divl then divl ()
        else
          let verb = w64_verb () in
          let sg = sign () in
          let lanes =
            List.init batch_lanes (fun _ ->
                let x, y = pair verb sg in
                Printf.sprintf "%Ld %Ld" x y)
          in
          Printf.sprintf "%sB %s %s" verb sg (String.concat " " lanes))
  in
  (exec_warmup, timed)

let generate w ~seed ~seconds =
  let g = prng w seed in
  let n = requests w ~seconds in
  let warmup, timed =
    match w with
    | Warm_zipf -> warm_zipf g n
    | Cold32 -> cold32 g n
    | Exec_mix -> exec_mix g n
  in
  { workload = w; seed; warmup; timed }
