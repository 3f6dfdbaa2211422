(** Functional-dependency checking directly on a logical index — the
    technique behind the paper's Fig. 5(b) ("testing this constraint
    using BDDs involves projection of suitable attributes to construct
    new BDDs and manipulation of the resulting BDDs").

    The FD  lhs → rhs  holds on R iff

      |π_{lhs ∪ rhs}(R)| = |π_{lhs}(R)|

    and both projections are [exists] passes over the entry's BDD
    (π_{lhs} a further pass over π_{lhs ∪ rhs}), computed once per
    entry root by {!Index.projection}, followed by O(|BDD|) model
    counts — no self-join, no renaming.
    The SQL counterpart is the paper's GROUP BY query
    (SELECT lhs FROM R GROUP BY lhs HAVING COUNT(DISTINCT rhs) > 1). *)

module R = Fcv_relation
module M = Fcv_bdd.Manager
module O = Fcv_bdd.Ops
module Fd = Fcv_bdd.Fd
module Sat = Fcv_bdd.Sat

let levels_of blocks = List.concat_map (fun b -> Array.to_list b.Fd.levels) blocks
let sorted_levels blocks = Array.of_list (List.sort compare (levels_of blocks))

(* Model count of [root] over exactly the given blocks (every other
   manager variable must be out of [root]'s support). *)
let count_over m blocks root = Sat.count_over m root ~levels:(sorted_levels blocks)

(* A covering entry of [table_name] for the attribute names [attrs]:
   the entry, the attributes' positions and blocks (in [attrs] order),
   and the entry's other positions.  [who] names the caller in the
   error.
   @raise Invalid_argument if no entry covers [attrs]. *)
let resolve ~who index ~table_name attrs =
  let schema = R.Table.schema (R.Database.table index.Index.db table_name) in
  let pos = List.map (R.Schema.position schema) attrs in
  let entry =
    match Index.find_covering index ~table_name ~needed:pos with
    | Some e -> e
    | None -> invalid_arg (who ^ ": no covering index")
  in
  let others = List.filter (fun p -> not (List.mem p pos)) (Array.to_list entry.Index.attrs) in
  (entry, pos, List.map (fun p -> entry.Index.blocks.(Index.slot_of entry p)) pos, others)

(* Split a [resolve]d list at the boundary between the first [n]
   attributes and the rest. *)
let split_at n l = (List.filteri (fun i _ -> i < n) l, List.filteri (fun i _ -> i >= n) l)

(* An FD's covering entry projected onto lhs ∪ rhs: the lhs positions,
   the lhs and rhs blocks, π_{lhs ∪ rhs} of the entry, and π_{lhs} on
   demand (the index derives it from the cached π_{lhs ∪ rhs}). *)
let fd_projection ~who index ~table_name ~lhs ~rhs =
  let entry, pos, blocks, others = resolve ~who index ~table_name (lhs @ rhs) in
  let n = List.length lhs in
  let lhs_pos, rhs_pos = split_at n pos in
  let lhs_blocks, rhs_blocks = split_at n blocks in
  let proj_l () = Index.projection index entry ~fix:[] ~drop:(others @ rhs_pos) in
  (lhs_pos, lhs_blocks, rhs_blocks, Index.projection index entry ~fix:[] ~drop:others, proj_l)

(** Does [lhs → rhs] (attribute names) hold according to the logical
    index?  Picks a covering entry of [table_name].
    @raise Invalid_argument if no entry covers lhs ∪ rhs. *)
let fd_holds index ~table_name ~lhs ~rhs =
  let _, lhs_blocks, rhs_blocks, proj_lr, proj_l =
    fd_projection ~who:"Fd_check.fd_holds" index ~table_name ~lhs ~rhs
  in
  let m = Index.mgr index in
  count_over m (lhs_blocks @ rhs_blocks) proj_lr = count_over m lhs_blocks (proj_l ())

(** Exact [(violating, total)] ordered-pair counts behind a soft FD:
    over the bindings of  ∀ x̄, r1, r2. R(..) ∧ R(..) → r1 = r2  (pairs
    of projected tuples sharing the lhs), [total] is Σ_g n_g² and the
    violating pairs are Σ_g n_g(n_g − 1), where n_g is the rhs
    co-domain size of lhs group g — the same quantities the general
    BDD path and the naive recount produce, computed in arbitrary
    precision.  When the variable order separates the lhs and rhs
    level ranges (either way round — the ordering heuristics float
    small domains up, so an FD's rhs usually sits on top) the sums
    come out of one linear pass over the projection; an interleaved
    order falls back to a restrict-and-count walk per lhs group.
    @raise Invalid_argument if no entry covers lhs ∪ rhs. *)
let fd_soft_counts index ~table_name ~lhs ~rhs =
  let module N = Fcv_bdd.Nat in
  let _, lhs_blocks, rhs_blocks, proj_lr, proj_l =
    fd_projection ~who:"Fd_check.fd_soft_counts" index ~table_name ~lhs ~rhs
  in
  let m = Index.mgr index in
  let lhs_levels = sorted_levels lhs_blocks and rhs_levels = sorted_levels rhs_blocks in
  let lhs_above_rhs =
    lhs_levels <> [||] && rhs_levels <> [||]
    && lhs_levels.(Array.length lhs_levels - 1) < rhs_levels.(0)
  in
  let rhs_above_lhs =
    lhs_levels <> [||] && rhs_levels <> [||]
    && rhs_levels.(Array.length rhs_levels - 1) < lhs_levels.(0)
  in
  if lhs_above_rhs then
    (* Every lhs level sits above every rhs level in the order, so
       below the last lhs level each sub-BDD of [proj_lr] is exactly
       one group's rhs set: Σ n_g and Σ n_g² accumulate in ONE
       memoised descent — O(|proj_lr|) Nat operations — instead of a
       restrict-and-count walk from the root per group, which is
       quadratic in practice (groups × shared nodes).  A skipped
       (don't-care) lhs level doubles the number of groups reaching
       a child; a skipped rhs level doubles each group's rhs set,
       i.e. ×2 on Σ n_g and ×4 on Σ n_g². *)
    let nvars = M.nvars m in
    let role = Array.make nvars `Out in
    Array.iter (fun l -> role.(l) <- `Lhs) lhs_levels;
    Array.iter (fun l -> role.(l) <- `Rhs) rhs_levels;
    (* cum_*.(l) = levels of that role with index < l *)
    let cum_lhs = Array.make (nvars + 1) 0 and cum_rhs = Array.make (nvars + 1) 0 in
    for l = 0 to nvars - 1 do
      cum_lhs.(l + 1) <- cum_lhs.(l) + (if role.(l) = `Lhs then 1 else 0);
      cum_rhs.(l + 1) <- cum_rhs.(l) + (if role.(l) = `Rhs then 1 else 0)
    done;
    let lhs_between v w = cum_lhs.(w) - cum_lhs.(v + 1) in
    let rhs_between v w = cum_rhs.(w) - cum_rhs.(v + 1) in
    let var_or_end id = if id = M.zero || id = M.one then nvars else M.var m id in
    (* rhs-region count: models of the subtree over the rhs levels
       at and below its variable *)
    let rc_memo : (int, N.t) Hashtbl.t = Hashtbl.create 256 in
    let rec rc id =
      if id = M.zero then N.zero
      else if id = M.one then N.one
      else
        match Hashtbl.find_opt rc_memo id with
        | Some n -> n
        | None ->
          let v = M.var m id in
          let branch child =
            N.shift_left (rc child) (rhs_between v (var_or_end child))
          in
          let n = N.add (branch (M.low m id)) (branch (M.high m id)) in
          Hashtbl.add rc_memo id n;
          n
    in
    (* lhs-region pair: (Σ n_g, Σ n_g²) over the groups of the
       subtree.  [edge v child] adjusts a child's pair for the
       levels skipped strictly between [v] and the child. *)
    let pair_memo : (int, N.t * N.t) Hashtbl.t = Hashtbl.create 256 in
    let rec pair id =
      match Hashtbl.find_opt pair_memo id with
      | Some p -> p
      | None ->
        let v = M.var m id in
        let a1, a2 = edge v (M.low m id) and b1, b2 = edge v (M.high m id) in
        let p = (N.add a1 b1, N.add a2 b2) in
        Hashtbl.add pair_memo id p;
        p
    and edge v child =
      let w = var_or_end child in
      let nl = lhs_between v w and nr = rhs_between v w in
      if child = M.zero then (N.zero, N.zero)
      else if child <> M.one && role.(M.var m child) = `Lhs then
        let s1, s2 = pair child in
        (N.shift_left s1 (nl + nr), N.shift_left s2 (nl + (2 * nr)))
      else
        (* boundary: one group's rhs set starts here *)
        let n = N.shift_left (rc child) nr in
        (N.shift_left n nl, N.shift_left (N.mul n n) nl)
    in
    let agreeing, total = edge (-1) proj_lr in
    (N.sub total agreeing, total)
  else if rhs_above_lhs then begin
    (* The common layout: the ordering heuristics float small
       domains to the top, and an FD's rhs is usually the small
       side, so every rhs level sits ABOVE every lhs level.  Here a
       per-group restrict is worst-case quadratic (each of the
       groups re-walks the whole shared top region), but the
       projection factors the other way: below the last rhs level
       each sub-BDD is the {e lhs set} of one rhs-region path.
       Collect those boundary nodes b with multiplicities c_b (the
       number of rhs assignments reaching b, don't-care rhs levels
       doubling), and then

         n_g      = Σ_{b ∋ g} c_b
         Σ_g n_g  and  Σ_g n_g²   off a per-group accumulator.

       Each boundary set is enumerated once, so the work is linear
       in |π_{lhs∪rhs}| — the same asymptotics as a row scan of the
       deduplicated projection. *)
    let nvars = M.nvars m in
    let role = Array.make nvars `Out in
    Array.iter (fun l -> role.(l) <- `Lhs) lhs_levels;
    Array.iter (fun l -> role.(l) <- `Rhs) rhs_levels;
    let cum_rhs = Array.make (nvars + 1) 0 in
    for l = 0 to nvars - 1 do
      cum_rhs.(l + 1) <- cum_rhs.(l) + (if role.(l) = `Rhs then 1 else 0)
    done;
    let var_or_end id = if id = M.zero || id = M.one then nvars else M.var m id in
    let is_boundary id =
      id = M.one || (id <> M.zero && role.(M.var m id) <> `Rhs)
    in
    (* multiplicity propagation through the rhs region, parents
       before children (ascending level order) *)
    let weights : (int, N.t) Hashtbl.t = Hashtbl.create 64 in
    let pending : (int, N.t) Hashtbl.t = Hashtbl.create 64 in
    let bump tbl id c =
      Hashtbl.replace tbl id
        (match Hashtbl.find_opt tbl id with None -> c | Some c0 -> N.add c0 c)
    in
    let seed id c = if is_boundary id then bump weights id c else bump pending id c in
    let top_skip = cum_rhs.(var_or_end proj_lr) in
    if proj_lr <> M.zero then seed proj_lr (N.shift_left N.one top_skip);
    (* reachable rhs-region nodes, ascending level order, so every
       node's multiplicity is complete before it is expanded *)
    let visited = Hashtbl.create 64 in
    let rhs_nodes = ref [] in
    let rec collect id =
      if id <> M.zero && not (is_boundary id) && not (Hashtbl.mem visited id) then begin
        Hashtbl.add visited id ();
        rhs_nodes := id :: !rhs_nodes;
        collect (M.low m id);
        collect (M.high m id)
      end
    in
    collect proj_lr;
    List.iter
      (fun u ->
        let c = Hashtbl.find pending u in
        let v = M.var m u in
        List.iter
          (fun child ->
            if child <> M.zero then
              seed child
                (N.shift_left c (cum_rhs.(var_or_end child) - cum_rhs.(v + 1))))
          [ M.low m u; M.high m u ])
      (List.sort (fun a b -> compare (M.var m a) (M.var m b)) !rhs_nodes);
    (* n_g accumulator: enumerate each boundary set's groups once,
       adding the set's multiplicity to each member *)
    let acc : (bool list, N.t) Hashtbl.t = Hashtbl.create 512 in
    Hashtbl.iter
      (fun b c ->
        Sat.fold_cubes m b ~init:() ~f:(fun () cube ->
            Sat.iter_expanded ~levels:lhs_levels cube ~f:(fun values ->
                bump acc (Array.to_list values) c)))
      weights;
    let agreeing = ref N.zero and total = ref N.zero in
    Hashtbl.iter
      (fun _ n ->
        agreeing := N.add !agreeing n;
        total := N.add !total (N.mul n n))
      acc;
    (N.sub !total !agreeing, !total)
  end
  else begin
    (* interleaved order: restrict-and-count per lhs group *)
    let total = ref N.zero and agreeing = ref N.zero in
    Sat.fold_cubes m (proj_l ()) ~init:() ~f:(fun () cube ->
        Sat.iter_expanded ~levels:lhs_levels cube ~f:(fun values ->
            let fix =
              List.mapi (fun i l -> (l, values.(i))) (Array.to_list lhs_levels)
            in
            let n = Sat.count_restrict_exact m proj_lr ~fix ~levels:rhs_levels in
            total := N.add !total (N.mul n n);
            agreeing := N.add !agreeing n));
    (N.sub !total !agreeing, !total)
  end

(** Does the multivalued dependency [lhs →→ mid] hold (with the
    complement side being every other indexed attribute)?  §2 of the
    paper singles out MVDs as the structure good orderings exploit:
    R satisfies lhs →→ mid iff R = π_{lhs∪mid}(R) ⋈ π_{lhs∪rest}(R).
    On BDDs the natural join of the two projections is a single
    conjunction (shared lhs blocks), and the test is canonical-node
    equality with the index root. *)
let mvd_holds index ~table_name ~lhs ~mid =
  if List.exists (fun a -> List.mem a lhs) mid then
    invalid_arg "Fd_check.mvd_holds: lhs and mid overlap";
  let entry, pos, _, rest = resolve ~who:"Fd_check.mvd_holds" index ~table_name (lhs @ mid) in
  let mid_pos = snd (split_at (List.length lhs) pos) in
  let proj_mid = Index.projection index entry ~fix:[] ~drop:rest in
  let proj_rest = Index.projection index entry ~fix:[] ~drop:mid_pos in
  O.band (Index.mgr index) proj_mid proj_rest = entry.Index.root

(** Recognise a functional-dependency-shaped constraint

      ∀ x̄, r1, r2.  R(..., r1, ...) ∧ R(..., r2, ...) → r1 = r2

    where the two atoms agree position-wise (shared variables or
    wildcards) except at exactly one position carrying r1 / r2.
    Returns [(relation, lhs attribute names, rhs attribute name)] so
    the checker can route the constraint to the projection-count
    method instead of compiling the self-join. *)
let recognize_fd db formula =
  let open Formula in
  match formula with
  | Forall
      (xs, Implies (And (Atom (r1, ts1), Atom (r2, ts2)), Eq (Var a, Var b)))
    when r1 = r2 && a <> b && List.length ts1 = List.length ts2 -> (
    match R.Database.table_opt db r1 with
    | None -> None
    | Some table ->
      let schema = R.Table.schema table in
      if List.length ts1 <> R.Schema.arity schema then None
      else begin
        let ok = ref true in
        let lhs = ref [] in
        let rhs = ref None in
        List.iteri
          (fun i (t1, t2) ->
            match (t1, t2) with
            | Wildcard, Wildcard -> ()
            | Var v1, Var v2 when v1 = v2 && v1 <> a && v1 <> b ->
              lhs := (v1, i) :: !lhs
            | Var v1, Var v2
              when ((v1 = a && v2 = b) || (v1 = b && v2 = a)) && !rhs = None ->
              rhs := Some i
            | _ -> ok := false)
          (List.combine ts1 ts2);
        match (!ok, !rhs) with
        | true, Some rhs_pos ->
          let lhs_vars = List.map fst !lhs in
          (* every quantified variable must play a role, and every role
             variable must be quantified *)
          let roles = a :: b :: lhs_vars in
          if
            List.sort compare roles = List.sort compare xs
            && List.length (List.sort_uniq compare lhs_vars) = List.length lhs_vars
          then
            Some
              ( r1,
                List.map (fun (_, i) -> schema.(i).R.Schema.name) (List.rev !lhs),
                schema.(rhs_pos).R.Schema.name )
          else None
        | _ -> None
      end)
  | _ -> None

(** {!recognize_fd} on an FD some entry of [index] covers — the shape
    the projection-count methods run on. *)
let covered_fd index formula =
  match recognize_fd index.Index.db formula with
  | Some (table_name, lhs, rhs) as fd ->
    let schema = R.Table.schema (R.Database.table index.Index.db table_name) in
    let needed = List.map (R.Schema.position schema) (rhs :: lhs) in
    if Index.find_covering index ~table_name ~needed = None then None else fd
  | None -> None

(** Does the inclusion dependency R[attrs_r] ⊆ S[attrs_s] hold?  On
    logical indices this is projection, rename onto shared blocks and
    an O(1) emptiness test of the difference — the last of the three
    classic dependency classes (FD / MVD / IND) checkable directly on
    the index.  The attribute lists pair up positionally and must draw
    from the same domains. *)
let ind_holds index ~r ~attrs_r ~s ~attrs_s =
  if List.length attrs_r <> List.length attrs_s then
    invalid_arg "Fd_check.ind_holds: attribute lists differ in length";
  let resolve = resolve ~who:"Fd_check.ind_holds" index in
  let entry_r, _, keep_r, others_r = resolve ~table_name:r attrs_r in
  let entry_s, _, keep_s, others_s = resolve ~table_name:s attrs_s in
  List.iter2
    (fun br bs ->
      if br.Fd.dom_size <> bs.Fd.dom_size then
        invalid_arg "Fd_check.ind_holds: attributes over different domains")
    keep_r keep_s;
  let m = Index.mgr index in
  let proj_r = Index.projection index entry_r ~fix:[] ~drop:others_r in
  let proj_s = Index.projection index entry_s ~fix:[] ~drop:others_s in
  (* rename S's projection onto R's blocks, then π_R \ π_S must be empty *)
  let pairs =
    List.concat (List.map2 (fun br bs ->
        List.init (Fd.width bs) (fun i -> (bs.Fd.levels.(i), br.Fd.levels.(i))))
        keep_r keep_s)
  in
  let proj_s' = if pairs = [] then proj_s else O.replace m proj_s pairs in
  O.is_false (O.bdiff m proj_r proj_s')

(** The violating lhs values: those determining more than one rhs
    tuple.  Returned as decoded value tuples, one list per lhs
    attribute. *)
let violating_lhs ?(limit = max_int) index ~table_name ~lhs ~rhs =
  let table = R.Database.table index.Index.db table_name in
  let lhs_pos, lhs_blocks, rhs_blocks, proj_lr, proj_l =
    fd_projection ~who:"Fd_check.violating_lhs" index ~table_name ~lhs ~rhs
  in
  let m = Index.mgr index in
  (* walk the lhs values present and count their rhs co-domain *)
  let proj_l = proj_l () in
  let results = ref [] in
  let count = ref 0 in
  let lhs_levels = sorted_levels lhs_blocks in
  (try
     ignore
       (Sat.fold_cubes m proj_l ~init:() ~f:(fun () cube ->
            Sat.iter_expanded ~levels:lhs_levels cube ~f:(fun values ->
                if !count < limit then begin
                  let env = Array.make (M.nvars m) false in
                  Array.iteri (fun i l -> env.(l) <- values.(i)) lhs_levels;
                  let codes = List.map (fun b -> Fd.read_env b env) lhs_blocks in
                  (* restrict proj_lr to this lhs value and count rhs *)
                  let restricted =
                    List.fold_left2
                      (fun acc b c ->
                        O.restrict m acc
                          (List.init (Fd.width b) (fun j ->
                               (Fd.level_of_bit b j, Fcv_util.Bits.test c j))))
                      proj_lr lhs_blocks codes
                  in
                  let rhs_count = count_over m rhs_blocks restricted in
                  if rhs_count > 1. then begin
                    let decoded =
                      List.map2
                        (fun p c -> R.Dict.value (R.Table.dict table p) c)
                        lhs_pos codes
                    in
                    results := decoded :: !results;
                    incr count
                  end
                end
                else raise Exit)))
   with Exit -> ());
  List.rev !results
