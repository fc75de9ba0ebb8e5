module I = Cq_interval.Interval
module Itree = Cq_index.Flat_interval_tree
module Metrics = Cq_obs.Metrics
module Trace = Cq_obs.Trace

let m_reconstructions = Metrics.counter "partition.reconstructions"

module Make (E : Partition_intf.ELEMENT) = struct
  type elt = E.t

  module ESet = Set.Make (E)
  module EMap = Map.Make (E)

  type grp = {
    gid : int;
    mutable members : ESet.t;
    (* Lazy common intersection: always stabs every member, but may be
       narrower than the true intersection after deletions (the paper's
       strategy never widens it back). *)
    mutable isect : I.t;
  }

  type t = {
    epsilon : float;
    groups : (int, grp) Hashtbl.t;
    (* Interval tree over group intersections, for the overlap lookup
       on insertion; replaced wholesale by reconstructions. *)
    mutable gindex : int Itree.t;
    mutable where : grp EMap.t;
    mutable next_gid : int;
    mutable n : int; (* current number of elements *)
    mutable tau0 : int; (* optimal partition size at last rebuild *)
    mutable dels_since : int; (* deletions since last rebuild *)
    mutable recon_count : int;
  }

  let try_create ?(epsilon = 1.0) ?seed:_ () =
    match Cq_util.Error.positive ~name:"epsilon" epsilon with
    | Error _ as e -> e
    | Ok epsilon ->
        Ok
          {
            epsilon;
            groups = Hashtbl.create 64;
            gindex = Itree.create ();
            where = EMap.empty;
            next_gid = 0;
            n = 0;
            tau0 = 0;
            dels_since = 0;
            recon_count = 0;
          }

  let create ?epsilon ?seed () = Cq_util.Error.ok_exn (try_create ?epsilon ?seed ())

  let size t = t.n
  let num_groups t = Hashtbl.length t.groups
  let mem t e = EMap.mem e t.where
  let reconstructions t = t.recon_count

  let fresh_gid t =
    let g = t.next_gid in
    t.next_gid <- g + 1;
    g

  let elements t = EMap.fold (fun e _ acc -> e :: acc) t.where []

  let reconstruct_impl t =
    let elems = Array.of_list (elements t) in
    Hashtbl.reset t.groups;
    t.where <- EMap.empty;
    let gi = Itree.create () in
    let fresh = Stabbing.canonical E.interval elems in
    Array.iter
      (fun (g : elt Stabbing.group) ->
        let gid = fresh_gid t in
        let grp = { gid; members = ESet.of_list (Array.to_list g.members); isect = g.isect } in
        Hashtbl.replace t.groups gid grp;
        Itree.add gi g.isect gid;
        Array.iter (fun e -> t.where <- EMap.add e grp t.where) g.members)
      fresh;
    t.gindex <- gi;
    t.tau0 <- Array.length fresh;
    t.dels_since <- 0;
    t.recon_count <- t.recon_count + 1

  let reconstruct t =
    Metrics.incr m_reconstructions;
    Trace.with_span ~cat:"partition" "lazy_partition.reconstruct" (fun () -> reconstruct_impl t)

  (* Paper's relaxed trigger: rebuild once |P| >= (1+eps)(tau0 - m). *)
  let maybe_reconstruct t =
    let p = float_of_int (num_groups t) in
    let budget = (1.0 +. t.epsilon) *. float_of_int (t.tau0 - t.dels_since) in
    if p >= budget && t.n > 0 then reconstruct t

  let insert t e =
    if mem t e then invalid_arg "Lazy_partition.insert: element already present";
    let iv = E.interval e in
    (* Any group whose common intersection overlaps iv can absorb it;
       the first in (lo, hi) order is taken. *)
    (match Itree.first_overlap t.gindex iv with
    | Some gid ->
        let grp = Hashtbl.find t.groups gid in
        let isect' = I.inter grp.isect iv in
        assert (not (I.is_empty isect'));
        ignore (Itree.remove t.gindex grp.isect (fun g -> g = gid));
        grp.isect <- isect';
        grp.members <- ESet.add e grp.members;
        Itree.add t.gindex isect' gid;
        t.where <- EMap.add e grp t.where
    | None ->
        let gid = fresh_gid t in
        let grp = { gid; members = ESet.singleton e; isect = iv } in
        Hashtbl.replace t.groups gid grp;
        Itree.add t.gindex iv gid;
        t.where <- EMap.add e grp t.where);
    t.n <- t.n + 1;
    maybe_reconstruct t

  let delete t e =
    match EMap.find_opt e t.where with
    | None -> false
    | Some grp ->
        grp.members <- ESet.remove e grp.members;
        t.where <- EMap.remove e t.where;
        if ESet.is_empty grp.members then begin
          Hashtbl.remove t.groups grp.gid;
          ignore (Itree.remove t.gindex grp.isect (fun g -> g = grp.gid))
        end;
        t.n <- t.n - 1;
        t.dels_since <- t.dels_since + 1;
        maybe_reconstruct t;
        true

  let groups t =
    Hashtbl.fold (fun _ grp acc -> (I.hi grp.isect, ESet.elements grp.members) :: acc) t.groups []
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)

  let iter_group_sizes t f = Hashtbl.iter (fun gid grp -> f gid (ESet.cardinal grp.members)) t.groups

  let group_members t gid =
    match Hashtbl.find_opt t.groups gid with
    | Some grp -> ESet.elements grp.members
    | None -> raise Not_found

  let group_of t e =
    match EMap.find_opt e t.where with Some grp -> grp.gid | None -> raise Not_found

  let check_invariants t =
    let fail fmt = Cq_util.Error.corrupt ~structure:"lazy_partition" fmt in
    (* Each member stabbed by its group's intersection. *)
    Hashtbl.iter
      (fun gid grp ->
        if ESet.is_empty grp.members then fail "empty group %d retained" gid;
        if I.is_empty grp.isect then fail "group %d has empty intersection" gid;
        ESet.iter
          (fun e ->
            if not (I.contains (E.interval e) grp.isect) then
              fail "group %d: member does not contain the group intersection" gid)
          grp.members)
      t.groups;
    (* where-map consistency and element count. *)
    let counted = ref 0 in
    EMap.iter
      (fun e grp ->
        incr counted;
        match Hashtbl.find_opt t.groups grp.gid with
        | Some g when g == grp ->
            if not (ESet.mem e grp.members) then fail "where-map points to non-member group"
        | _ -> fail "where-map points to dead group")
      t.where;
    if !counted <> t.n then fail "size mismatch";
    let member_total = Hashtbl.fold (fun _ g acc -> acc + ESet.cardinal g.members) t.groups 0 in
    if member_total <> t.n then fail "group member totals disagree with size";
    (* Lemma 3 size bound against a freshly computed optimum. *)
    let tau = Stabbing.tau E.interval (Array.of_list (elements t)) in
    let p = num_groups t in
    if float_of_int p > ((1.0 +. t.epsilon) *. float_of_int tau) +. 1e-9 then
      fail "partition size %d exceeds (1+eps) * tau = (1+%g) * %d" p t.epsilon tau
end
