(** Logical operations on ROBDDs: memoised apply, negation, if-then-else,
    restriction, quantification, the fused quantify-apply operators
    ([appex]/[appall], mirroring BuDDy's [bdd_appex]/[bdd_appall] that
    the paper's rewrite rules §4.3 rely on), and variable replacement
    (the rename operation behind the equi-join rewrite of §4.2). *)

module M = Manager

type binop = And | Or | Xor | Imp | Iff | Diff
(** [Diff] is f ∧ ¬g. *)

let op_code = function
  | And -> 1
  | Or -> 2
  | Xor -> 3
  | Imp -> 4
  | Iff -> 5
  | Diff -> 6

let not_code = 7
let _ite_code = 8

(* Truth table of a binop on terminal operands. *)
let op_eval op a b =
  match op with
  | And -> a && b
  | Or -> a || b
  | Xor -> a <> b
  | Imp -> (not a) || b
  | Iff -> a = b
  | Diff -> a && not b

let term_bool id = id = M.one
let bool_term b = if b then M.one else M.zero

(* Short-circuit rules: given the op and one (possibly two) terminal
   operands, produce the result without recursion when determined. *)
let shortcut op f g =
  if M.is_terminal f && M.is_terminal g then
    Some (bool_term (op_eval op (term_bool f) (term_bool g)))
  else
    match (op, f, g) with
    | And, _, _ when f = M.zero || g = M.zero -> Some M.zero
    | And, _, _ when f = M.one -> Some g
    | And, _, _ when g = M.one -> Some f
    | And, _, _ when f = g -> Some f
    | Or, _, _ when f = M.one || g = M.one -> Some M.one
    | Or, _, _ when f = M.zero -> Some g
    | Or, _, _ when g = M.zero -> Some f
    | Or, _, _ when f = g -> Some f
    | Xor, _, _ when f = M.zero -> Some g
    | Xor, _, _ when g = M.zero -> Some f
    | Xor, _, _ when f = g -> Some M.zero
    | Imp, _, _ when f = M.zero -> Some M.one
    | Imp, _, _ when f = M.one -> Some g
    | Imp, _, _ when g = M.one -> Some M.one
    | Imp, _, _ when f = g -> Some M.one
    | Iff, _, _ when f = M.one -> Some g
    | Iff, _, _ when g = M.one -> Some f
    | Iff, _, _ when f = g -> Some M.one
    | Diff, _, _ when f = M.zero || g = M.one -> Some M.zero
    | Diff, _, _ when g = M.zero -> Some f
    | Diff, _, _ when f = g -> Some M.zero
    | (And | Or | Xor | Imp | Iff | Diff), _, _ -> None

(* Commutative ops get normalised operand order to double cache hits. *)
let normalise op f g =
  match op with
  | And | Or | Xor | Iff -> if f <= g then (f, g) else (g, f)
  | Imp | Diff -> (f, g)

let rec apply_rec m op f g =
  match shortcut op f g with
  | Some r -> r
  | None -> (
    let f, g = normalise op f g in
    let code = op_code op in
    let r = M.cache_find m code f g in
    if r >= 0 then r
    else begin
      let vf = M.var m f and vg = M.var m g in
      let v = min vf vg in
      let f0, f1 = if vf = v then (M.low m f, M.high m f) else (f, f) in
      let g0, g1 = if vg = v then (M.low m g, M.high m g) else (g, g) in
      let r0 = apply_rec m op f0 g0 in
      let r1 = apply_rec m op f1 g1 in
      let r = M.mk m v r0 r1 in
      M.cache_add m code f g r;
      r
    end)

let apply m op f g =
  if !Fcv_util.Telemetry.on then M.count_op m M.op_apply;
  apply_rec m op f g

let rec neg_rec m f =
  if f = M.zero then M.one
  else if f = M.one then M.zero
  else
    let r = M.cache_find m not_code f f in
    if r >= 0 then r
    else begin
      let r0 = neg_rec m (M.low m f) in
      let r1 = neg_rec m (M.high m f) in
      let r = M.mk m (M.var m f) r0 r1 in
      M.cache_add m not_code f f r;
      r
    end

let neg m f =
  if !Fcv_util.Telemetry.on then M.count_op m M.op_neg;
  neg_rec m f

let band m f g = apply m And f g
let bor m f g = apply m Or f g
let bxor m f g = apply m Xor f g
let bimp m f g = apply m Imp f g
let biff m f g = apply m Iff f g
let bdiff m f g = apply m Diff f g

(* If-then-else: needed by [replace] when the substituted variable does
   not preserve the level order.  Memoised in a manager-level ternary
   cache so that the many ite calls issued by one [replace] over a
   large BDD share sub-results. *)
let rec ite_rec m f g h =
  if f = M.one then g
  else if f = M.zero then h
  else if g = h then g
  else if g = M.one && h = M.zero then f
  else
    let r = M.ite_cache_find m f g h in
    if r >= 0 then r
    else begin
      let vf = M.var m f and vg = M.var m g and vh = M.var m h in
      let v = min vf (min vg vh) in
      let split x vx = if vx = v then (M.low m x, M.high m x) else (x, x) in
      let f0, f1 = split f vf in
      let g0, g1 = split g vg in
      let h0, h1 = split h vh in
      let r0 = ite_rec m f0 g0 h0 in
      let r1 = ite_rec m f1 g1 h1 in
      let r = M.mk m v r0 r1 in
      M.ite_cache_add m f g h r;
      r
    end

let ite m f g h =
  if !Fcv_util.Telemetry.on then M.count_op m M.op_ite;
  ite_rec m f g h

(** [restrict m f bindings] fixes each [(level, value)] in [bindings];
    the bound variables disappear from the result. *)
let restrict m f bindings =
  if !Fcv_util.Telemetry.on then M.count_op m M.op_restrict;
  let bound = Hashtbl.create 8 in
  List.iter (fun (v, b) -> Hashtbl.replace bound v b) bindings;
  let memo = Hashtbl.create 256 in
  let rec go f =
    if M.is_terminal f then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let v = M.var m f in
        let r =
          match Hashtbl.find_opt bound v with
          | Some true -> go (M.high m f)
          | Some false -> go (M.low m f)
          | None ->
            let r0 = go (M.low m f) in
            let r1 = go (M.high m f) in
            M.mk m v r0 r1
        in
        Hashtbl.add memo f r;
        r
  in
  go f

(* Serialised description of a quantification, interned by the manager
   into a small signature so results are shared across calls in one
   packed-int cache (the BuDDy quantification-cache design). *)
let quant_descr ~tag ~op ~quant levels =
  let buf = Buffer.create 32 in
  Buffer.add_string buf tag;
  Buffer.add_char buf (Char.chr (op_code op + 48));
  Buffer.add_char buf (Char.chr (op_code quant + 48));
  List.iter (fun v -> Buffer.add_string buf (string_of_int v); Buffer.add_char buf ',')
    (List.sort compare levels);
  Buffer.contents buf

(* The deepest quantified level, and membership of every level down to
   it as a bool array — the per-node test of the recursions below. *)
let level_set levels =
  let deepest = List.fold_left max min_int levels in
  let set = Array.make (deepest + 1) false in
  List.iter (fun v -> set.(v) <- true) levels;
  (deepest, set)

(* Quantification over a set of levels.  [combine] is Or for ∃ and And
   for ∀.  We cut the recursion as soon as the node's level exceeds the
   deepest quantified level. *)
let quantify m combine levels f =
  if levels = [] then f
  else begin
    let deepest, set = level_set levels in
    let sig_ =
      M.quant_signature m ~descr:(quant_descr ~tag:"q" ~op:combine ~quant:combine levels)
    in
    let rec go f =
      if M.is_terminal f || M.var m f > deepest then f
      else
        let r = M.quant_cache_find m sig_ f f in
        if r >= 0 then r
        else begin
          let v = M.var m f in
          let r0 = go (M.low m f) in
          let r1 = go (M.high m f) in
          let r = if set.(v) then apply m combine r0 r1 else M.mk m v r0 r1 in
          M.quant_cache_add m sig_ f f r;
          r
        end
    in
    go f
  end

let exists m levels f =
  if !Fcv_util.Telemetry.on then M.count_op m M.op_exists;
  quantify m Or levels f

let forall m levels f =
  if !Fcv_util.Telemetry.on then M.count_op m M.op_forall;
  quantify m And levels f

(* Fused apply-and-quantify, the workhorse behind the §4.3 rewrite
   rules.  [appquant m op quant levels f g] computes
   [quantify quant levels (apply op f g)] without materialising the
   intermediate BDD. *)
let appquant m op quant levels f g =
  if levels = [] then apply m op f g
  else begin
    let deepest, set = level_set levels in
    let sig_ = M.quant_signature m ~descr:(quant_descr ~tag:"a" ~op ~quant levels) in
    let rec go f g =
      (* Once both operands live entirely below the quantified prefix,
         the remaining work is a plain apply. *)
      let vf = M.var m f and vg = M.var m g in
      if min vf vg > deepest then apply m op f g
      else
        match shortcut op f g with
        | Some r when M.is_terminal r -> r
        | _ ->
          let r = M.quant_cache_find m sig_ f g in
          if r >= 0 then r
          else begin
            let v = min vf vg in
            let f0, f1 = if vf = v then (M.low m f, M.high m f) else (f, f) in
            let g0, g1 = if vg = v then (M.low m g, M.high m g) else (g, g) in
            let r0 = go f0 g0 in
            let r1 = go f1 g1 in
            let r = if set.(v) then apply m quant r0 r1 else M.mk m v r0 r1 in
            M.quant_cache_add m sig_ f g r;
            r
          end
    in
    go f g
  end

(** [appex m op levels f g] = ∃levels. (f op g) — BuDDy's [bdd_appex]. *)
let appex m op levels f g =
  if !Fcv_util.Telemetry.on then M.count_op m M.op_appex;
  appquant m op Or levels f g

(** [appall m op levels f g] = ∀levels. (f op g) — BuDDy's [bdd_appall]. *)
let appall m op levels f g =
  if !Fcv_util.Telemetry.on then M.count_op m M.op_appall;
  appquant m op And levels f g

(** [replace m f pairs] renames variables: each [(from_level, to_level)]
    substitutes the variable at [from_level] with the one at
    [to_level].  Target variables must not occur in the support of [f]
    (standard BuDDy precondition for [bdd_replace]).

    When the mapping preserves the level order relative to the rest of
    the support, the result is built with a cheap [mk]; otherwise we
    fall back to [ite], which is correct for arbitrary maps. *)
let replace m f pairs =
  if !Fcv_util.Telemetry.on then M.count_op m M.op_replace;
  if pairs = [] then f
  else begin
    let map = Hashtbl.create 8 in
    List.iter
      (fun (a, b) ->
        if Hashtbl.mem map a then invalid_arg "Ops.replace: duplicate source";
        Hashtbl.replace map a b)
      pairs;
    let memo = Hashtbl.create 256 in
    let rec go f =
      if M.is_terminal f then f
      else
        match Hashtbl.find_opt memo f with
        | Some r -> r
        | None ->
          let v = M.var m f in
          let r0 = go (M.low m f) in
          let r1 = go (M.high m f) in
          let v' = match Hashtbl.find_opt map v with Some w -> w | None -> v in
          let r =
            if v' < M.var m r0 && v' < M.var m r1 then M.mk m v' r0 r1
            else ite m (M.ithvar m v') r1 r0
          in
          Hashtbl.add memo f r;
          r
    in
    go f
  end

(** Logical equivalence is pointer equality on ROBDDs (Bryant's
    canonicity, Fact 1 of the paper). *)
let equal f g = f = g

(** Validity and satisfiability are O(1) on ROBDDs — the property the
    leading-quantifier-elimination rewrite (§4.1) exploits. *)
let is_true f = f = M.one

let is_false f = f = M.zero
let is_satisfiable f = f <> M.zero
