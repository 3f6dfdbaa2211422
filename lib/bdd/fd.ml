(** Finite-domain variables on top of the boolean BDD kernel.

    A finite-domain variable with domain size [d] is a {e block} of
    [⌈log₂ d⌉] boolean variables (§2.1 of the paper); the block's
    levels are consecutive in the order, MSB shallowest.  All
    relational encoding, constraint compilation and quantification work
    through blocks. *)

module M = Manager

type block = {
  name : string;
  dom_size : int;
  levels : int array;  (** strictly increasing; [levels.(0)] is the MSB *)
}

let width b = Array.length b.levels

(** Allocate a fresh block of consecutive variables at the bottom of
    the current order. *)
let alloc m ~name ~dom_size =
  if dom_size <= 0 then invalid_arg "Fd.alloc: empty domain";
  let w = Fcv_util.Bits.width dom_size in
  { name; dom_size; levels = M.new_vars m w }

(** Bit [j] (LSB = 0) of code [c] lives at level [levels.(w-1-j)]. *)
let level_of_bit b j = b.levels.(width b - 1 - j)

(** Build the conjunction of literals [(level, value)] directly,
    bottom-up — linear, no apply-cache traffic. *)
let cube m lits =
  let lits = List.sort (fun (a, _) (b, _) -> compare b a) lits (* deepest first *) in
  List.fold_left
    (fun acc (v, value) ->
      if value then M.mk m v M.zero acc else M.mk m v acc M.zero)
    M.one lits

(** BDD of [x = c]. *)
let eq_const m b c =
  if c < 0 || c >= b.dom_size then invalid_arg "Fd.eq_const: value out of domain";
  let w = width b in
  let lits = List.init w (fun j -> (level_of_bit b j, Fcv_util.Bits.test c j)) in
  cube m lits

(** The minterm of a tuple spanning several blocks: ⋀ᵢ (xᵢ = cᵢ). *)
let tuple_minterm m pairs =
  let lits =
    List.concat_map
      (fun (b, c) ->
        if c < 0 || c >= b.dom_size then
          invalid_arg "Fd.tuple_minterm: value out of domain";
        List.init (width b) (fun j -> (level_of_bit b j, Fcv_util.Bits.test c j)))
      pairs
  in
  cube m lits

(** BDD of [x < c] over the block's bits (MSB-first comparator). *)
let lt_const m b c =
  if c <= 0 then M.zero
  else if c >= 1 lsl width b then M.one
  else begin
    let w = width b in
    (* below(d) = BDD over levels.(d..) accepting codes whose suffix is
       < the corresponding suffix of c. *)
    let rec below d =
      if d = w then M.zero
      else begin
        let bit = Fcv_util.Bits.test c (w - 1 - d) in
        let rest = below (d + 1) in
        if bit then M.mk m b.levels.(d) M.one rest
        else M.mk m b.levels.(d) rest M.zero
      end
    in
    below 0
  end

(** Domain-validity guard: codes in [0, dom_size). *)
let valid m b = lt_const m b b.dom_size

(** BDD of [x = y] for blocks of possibly different widths.  Extra
    high bits of the wider block are forced to 0. *)
let eq_blocks m b1 b2 =
  let w = max (width b1) (width b2) in
  let bit_bdd blk j =
    if j < width blk then Some (level_of_bit blk j) else None
  in
  let acc = ref M.one in
  for j = 0 to w - 1 do
    let term =
      match (bit_bdd b1 j, bit_bdd b2 j) with
      | Some l1, Some l2 -> Ops.biff m (M.ithvar m l1) (M.ithvar m l2)
      | Some l1, None -> M.nithvar m l1
      | None, Some l2 -> M.nithvar m l2
      | None, None -> assert false
    in
    acc := Ops.band m !acc term
  done;
  !acc

(** Membership [x ∈ S] built by the direct top-down construction over
    sorted codes (no apply); [codes] need not be sorted or deduped. *)
let in_set m b codes =
  let codes = List.sort_uniq compare codes in
  List.iter
    (fun c ->
      if c < 0 || c >= b.dom_size then invalid_arg "Fd.in_set: value out of domain")
    codes;
  let codes = Array.of_list codes in
  Of_codes.build m ~levels:b.levels ~codes

(** ∃x. f where x ranges over the {e active domain} of the block: the
    bit-level ∃ is guarded with the validity BDD, fused via [appex]. *)
let exists m b f =
  let guard = valid m b in
  Ops.appex m Ops.And (Array.to_list b.levels) guard f

(** ∀x. f over the active domain: ∀bits. (valid ⇒ f), fused via
    [appall]. *)
let forall m b f =
  let guard = valid m b in
  Ops.appall m Ops.Imp (Array.to_list b.levels) guard f

(** Unguarded bit-level quantification (exact when the domain size is a
    power of two, or when f is known false outside the domain). *)
let exists_bits m b f = Ops.exists m (Array.to_list b.levels) f

let forall_bits m b f = Ops.forall m (Array.to_list b.levels) f

(** Rename each [(src, dst)] block onto [dst] at once, every [dst] at
    least as wide as its [src]: bits pair up by position, and [dst]'s
    extra high bits, unconstrained after the rename, are clamped to 0
    so codes stay exact. *)
let rename_onto m f renames =
  if f = M.zero then f
  else begin
    let pairs, high =
      List.fold_left
        (fun (pairs, high) (src, dst) ->
          let ws = width src and wd = width dst in
          if wd < ws then invalid_arg "Fd.rename_onto: target narrower than source";
          ( List.init ws (fun j -> (level_of_bit src j, level_of_bit dst j)) @ pairs,
            List.init (wd - ws) (fun j -> (level_of_bit dst (ws + j), false)) @ high ))
        ([], []) renames
    in
    let f = if pairs = [] then f else Ops.replace m f pairs in
    if high = [] then f else Ops.band m f (cube m high)
  end

(** Rename block [src] to block [dst] (same domain). *)
let rename m f ~src ~dst =
  if src.dom_size <> dst.dom_size then invalid_arg "Fd.rename: domain mismatch";
  if src.levels = dst.levels then f else rename_onto m f [ (src, dst) ]

(** Set the bits of [b] in an evaluation environment to code [c]. *)
let set_env b c env =
  for j = 0 to width b - 1 do
    env.(level_of_bit b j) <- Fcv_util.Bits.test c j
  done

(** Read the code of [b] from a full boolean assignment over levels. *)
let read_env b env =
  let w = width b in
  let c = ref 0 in
  for j = 0 to w - 1 do
    if env.(level_of_bit b j) then c := !c lor (1 lsl j)
  done;
  !c
