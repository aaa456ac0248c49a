(* Verification of served replies against references the planner does
   not produce: MUL chains are replayed in OCaml integer arithmetic, DIV
   code is run on sample dividends and compared with Int32 division,
   and executed results are compared with Int32 / Int64 / U128
   arithmetic. *)

module Protocol = Hppa_server.Protocol
module Machine = Hppa_machine.Machine
module U128 = Hppa_word.U128
module Asm = Hppa_isa.Asm
module Program = Hppa_isa.Program
module Reg = Hppa_isa.Reg

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* [field payload "cycles"] is the value of the first " cycles=" token. *)
let field payload key =
  let pat = " " ^ key ^ "=" in
  let n = String.length payload and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub payload i m = pat then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop =
        match String.index_from_opt payload start ' ' with
        | Some j -> j
        | None -> n
      in
      Some (String.sub payload start (stop - start))

(* The rendered code runs to the end of the reply. *)
let code payload =
  let pat = " code=" in
  let m = String.length pat in
  let rec find i =
    if i + m > String.length payload then None
    else if String.sub payload i m = pat then
      Some (String.sub payload (i + m) (String.length payload - i - m))
    else find (i + 1)
  in
  find 0

let need payload key conv =
  match Option.bind (field payload key) conv with
  | Some v -> Ok v
  | None -> fail "missing or malformed %s= in %S" key payload

let expect what got want pp =
  if got = want then Ok ()
  else fail "%s: got %s, want %s" what (pp got) (pp want)

let cycles_of payload = Option.bind (field payload "cycles") int_of_string_opt

(* Every cycles= value in a reply, one per lane line of a batch. *)
let cycles reply =
  List.filter_map cycles_of (String.split_on_char '\n' reply)

(* ------------------------------------------------------------------ *)
(* MUL: replay chain=                                                  *)

type step = Add of int * int | Shadd of int * int * int | Sub of int * int | Shl of int * int

let elt s =
  if String.length s >= 2 && s.[0] = 'a' then
    int_of_string_opt (String.sub s 1 (String.length s - 1))
  else None

let split2 s sep =
  match String.index_opt s sep with
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> None

(* One rendered step "aE=aJ+aK" | "aE=M*aJ+aK" | "aE=aJ-aK" | "aE=aJ<<M";
   returns the element index it defines and the step. *)
let parse_step tok =
  let ( let+ ) = Option.bind in
  let+ lhs, rhs = split2 tok '=' in
  let+ e = elt lhs in
  let step =
    match String.index_opt rhs '<' with
    | Some i when i + 1 < String.length rhs && rhs.[i + 1] = '<' ->
        let+ j = elt (String.sub rhs 0 i) in
        let+ m = int_of_string_opt (String.sub rhs (i + 2) (String.length rhs - i - 2)) in
        Some (Shl (j, m))
    | _ -> (
        match split2 rhs '+' with
        | Some (l, r) -> (
            let+ k = elt r in
            match split2 l '*' with
            | Some (f, j) ->
                let+ f = int_of_string_opt f in
                let+ j = elt j in
                let m = match f with 2 -> 1 | 4 -> 2 | 8 -> 3 | _ -> 0 in
                if m = 0 then None else Some (Shadd (m, j, k))
            | None ->
                let+ j = elt l in
                Some (Add (j, k)))
        | None ->
            let+ l, r = split2 rhs '-' in
            let+ j = elt l in
            let+ k = elt r in
            Some (Sub (j, k)))
  in
  Option.map (fun s -> (e, s)) step

(* Chain value for multiplicand [x]: a0 = 0, a1 = x, then each step. *)
let replay_chain steps x =
  let vals = Array.make (List.length steps + 2) 0 in
  vals.(1) <- x;
  let ok = ref true in
  List.iteri
    (fun i (e, step) ->
      let get j = if j >= 0 && j < i + 2 then vals.(j) else (ok := false; 0) in
      if e <> i + 2 then ok := false
      else
        vals.(e) <-
          (match step with
          | Add (j, k) -> get j + get k
          | Shadd (m, j, k) -> (get j lsl m) + get k
          | Sub (j, k) -> get j - get k
          | Shl (j, m) -> get j lsl m))
    steps;
  if !ok then Some vals.(Array.length vals - 1) else None

let multiplicands = [ 1; 3; 1000; 65535 ]

let check_mul n payload =
  let* rn = need payload "n" Int32.of_string_opt in
  let* () = expect "n" rn n Int32.to_string in
  let* steps = need payload "steps" int_of_string_opt in
  let* chain = need payload "chain" Option.some in
  let* _ = need payload "cycles" int_of_string_opt in
  if chain = "-" then
    if n = 0l || n = Int32.min_int then Ok ()
    else fail "MUL %ld: no chain" n
  else
    let toks = if chain = "" then [] else String.split_on_char ';' chain in
    let parsed = List.filter_map parse_step toks in
    if List.length parsed <> List.length toks then fail "MUL %ld: bad chain %S" n chain
    else
      let* () = expect "steps" steps (List.length parsed) string_of_int in
      let mag = abs (Int32.to_int n) in
      List.fold_left
        (fun acc x ->
          let* () = acc in
          match replay_chain parsed x with
          | Some v when v = mag * x -> Ok ()
          | Some v -> fail "MUL %ld: chain gives %d for %d * %d" n v mag x
          | None -> fail "MUL %ld: chain references an undefined element" n)
        (Ok ()) multiplicands

(* ------------------------------------------------------------------ *)
(* DIV: run code= on sample dividends                                  *)

(* Labels are rendered verbatim, and the planners' entry names may hold
   characters the assembler does not take in a label (DIV -2147483648
   is "divi_cm-2147483648"); rename those before parsing. *)
let label_ok l =
  String.for_all (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true | _ -> false) l

let program_of_code code =
  let items = List.map String.trim (String.split_on_char '|' code) in
  let bad =
    List.filter_map
      (fun it ->
        let n = String.length it in
        if n > 1 && it.[n - 1] = ':' && not (label_ok (String.sub it 0 (n - 1))) then
          Some (String.sub it 0 (n - 1))
        else None)
      items
    |> List.sort (fun a b -> compare (String.length b) (String.length a))
  in
  let rename text l =
    let clean = String.map (fun c -> if label_ok (String.make 1 c) then c else '_') l in
    Str.global_replace (Str.regexp_string l) clean text
  in
  Asm.parse (List.fold_left rename (String.concat "\n" items) bad)

let entry_of_source (src : Program.source) =
  List.find_map (function Program.Label l -> Some l | Program.Insn _ -> None) src

let dividends d =
  let base =
    [ 0l; 1l; 2l; 7l; -1l; -7l; Int32.max_int; Int32.min_int; 0x12345678l;
      0xdeadbeefl; d; Int32.neg d; Int32.pred d; Int32.succ d; Int32.mul d 3l ]
  in
  (* the one signed quotient that does not fit *)
  List.filter (fun x -> not (d = -1l && x = Int32.min_int)) base

let check_div d payload =
  let* rd = need payload "d" Int32.of_string_opt in
  let* () = expect "d" rd d Int32.to_string in
  let* signed = need payload "signed" bool_of_string_opt in
  let* () = expect "signed" signed (d < 0l) string_of_bool in
  let* needs = need payload "needs_millicode" bool_of_string_opt in
  let* _ = need payload "cycles" int_of_string_opt in
  let* code = Option.to_result ~none:"DIV: no code=" (code payload) in
  let* src = program_of_code code in
  let* entry = Option.to_result ~none:"DIV: code has no label" (entry_of_source src) in
  let* prog =
    (* a general-divide fallback tail-calls the divU/divI millicode *)
    Program.resolve (if needs then src @ Hppa.Div_gen.source else src)
  in
  let mach = Machine.create prog in
  List.fold_left
    (fun acc x ->
      let* () = acc in
      Machine.reset mach;
      match Machine.call ~fuel:100_000 mach entry ~args:[ x ] with
      | Machine.Halted ->
          let q = Machine.get mach Reg.ret0 in
          let want = if signed then Int32.div x d else Int32.unsigned_div x d in
          if q = want then Ok ()
          else fail "DIV %ld: code gives %ld / %ld = %ld, want %ld" d x d q want
      | Machine.Trapped _ | Machine.Fuel_exhausted -> fail "DIV %ld: code did not halt on %ld" d x)
    (Ok ()) (dividends d)

(* ------------------------------------------------------------------ *)
(* Executed replies                                                    *)

let check_eval entry args payload =
  let* e = need payload "entry" Option.some in
  let* () = expect "entry" e entry Fun.id in
  let* r0 = need payload "ret0" Int32.of_string_opt in
  let* r1 = need payload "ret1" Int32.of_string_opt in
  let* _ = need payload "cycles" int_of_string_opt in
  match (entry, args) with
  | "mulI", [ x; y ] -> expect "mulI ret0" r0 (Int32.mul x y) Int32.to_string
  | "divI", [ x; y ] when y <> 0l ->
      let* () = expect "divI ret0" r0 (Int32.div x y) Int32.to_string in
      expect "divI ret1" r1 (Int32.rem x y) Int32.to_string
  | _ -> fail "EVAL %s: no reference for this entry" entry

let signed_product x y =
  let p = U128.mul_64_64 x y in
  let hi = p.U128.hi in
  let hi = if x < 0L then Int64.sub hi y else hi in
  let hi = if y < 0L then Int64.sub hi x else hi in
  (hi, p.U128.lo)

let check_w64 op ~signed x y payload =
  let* s = need payload "signed" bool_of_string_opt in
  let* () = expect "signed" s signed string_of_bool in
  let* rx = need payload "x" Int64.of_string_opt in
  let* ry = need payload "y" Int64.of_string_opt in
  let* () = expect "operands" (rx, ry) (x, y) (fun (a, b) -> Printf.sprintf "%Ld %Ld" a b) in
  let* _ = need payload "cycles" int_of_string_opt in
  let i64 = Int64.to_string in
  match (op : Protocol.w64_op) with
  | Protocol.W64_mul ->
      let* hi = need payload "hi" Int64.of_string_opt in
      let* lo = need payload "lo" Int64.of_string_opt in
      let whi, wlo =
        if signed then signed_product x y
        else
          let p = U128.mul_64_64 x y in
          (p.U128.hi, p.U128.lo)
      in
      let* () = expect "hi" hi whi i64 in
      expect "lo" lo wlo i64
  | Protocol.W64_div ->
      let* q = need payload "q" Int64.of_string_opt in
      let* r = need payload "r" Int64.of_string_opt in
      let wq, wr =
        if signed then (Int64.div x y, Int64.rem x y)
        else (Int64.unsigned_div x y, Int64.unsigned_rem x y)
      in
      let* () = expect "q" q wq i64 in
      expect "r" r wr i64
  | Protocol.W64_rem ->
      let* r = need payload "r" Int64.of_string_opt in
      expect "r" r (if signed then Int64.rem x y else Int64.unsigned_rem x y) i64

let check_divl ~xhi ~xlo y payload =
  let* q = need payload "q" Int64.of_string_opt in
  let* r = need payload "r" Int64.of_string_opt in
  let* _ = need payload "cycles" int_of_string_opt in
  let wq, wr = U128.divmod_64 { U128.hi = xhi; lo = xlo } y in
  if not (U128.fits_int64 wq) then fail "W64DIVL: quotient overflows"
  else
    let* () = expect "q" q (U128.to_int64 wq) Int64.to_string in
    expect "r" r wr Int64.to_string

let strip_ok line =
  if String.length line >= 3 && String.sub line 0 3 = "OK " then
    Ok (String.sub line 3 (String.length line - 3))
  else fail "not OK: %s" line

let check_lane kernel lane line =
  let* payload = strip_ok line in
  let payload = " " ^ payload in
  match ((kernel : Protocol.kernel), (lane : Protocol.lane)) with
  | Protocol.Kmul, Protocol.Const n -> check_mul n payload
  | Protocol.Kdiv, Protocol.Const d -> check_div d payload
  | Protocol.Kw64 op, Protocol.Pair { signed; x; y } -> check_w64 op ~signed x y payload
  | Protocol.Kdivl, Protocol.Triple { xhi; xlo; y } -> check_divl ~xhi ~xlo y payload
  | _ -> fail "lane shape does not match its kernel"

(* Check one reply against the request line it answers. *)
let reply request reply =
  match Protocol.parse request with
  | Error e -> fail "request does not parse: %s" e
  | Ok (Protocol.Eval (entry, args)) ->
      let* payload = strip_ok reply in
      check_eval entry args (" " ^ payload)
  | Ok (Protocol.Op { kernel; batch = false; lanes = [ lane ] }) -> check_lane kernel lane reply
  | Ok (Protocol.Op { kernel; batch = true; lanes }) -> (
      match String.split_on_char '\n' reply with
      | header :: lines ->
          let want =
            Printf.sprintf "OK %sB k=%d" (Protocol.kernel_verb kernel) (List.length lanes)
          in
          let* () = expect "batch header" header want Fun.id in
          if List.length lines <> List.length lanes then fail "batch: lane count"
          else
            List.fold_left2
              (fun acc lane line ->
                let* () = acc in
                check_lane kernel lane line)
              (Ok ()) lanes lines
      | [] -> fail "empty reply")
  | Ok _ -> fail "not a plan-producing request: %s" request
