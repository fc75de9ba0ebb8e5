module I = Cq_interval.Interval
module Metrics = Cq_obs.Metrics
module Trace = Cq_obs.Trace

let m_reconstructions = Metrics.counter "partition.reconstructions"

module Make (E : Partition_intf.ELEMENT) = struct
  type elt = E.t

  module T = Cq_index.Treap.Make (E)
  module EMap = Map.Make (E)

  (* A group surviving from the last reconstruction.  [boundary] is the
     smallest left endpoint among the group's members (lowered when an
     insertion refines into the group); by invariant (⋆) the boundaries
     are strictly increasing across groups, so an element's group is
     found by binary search on its left endpoint — no per-element
     pointers are needed.  [point] is the stabbing point fixed at
     reconstruction time: every member, past and future, contains it
     (deletions can only widen the common intersection, and the insert
     refinement only admits elements stabbed by [point]). *)
  type grp = {
    gid : int;
    mutable boundary : float;
    point : float;
    mutable treap : T.t;
  }

  type t = {
    epsilon : float;
    rng : Cq_util.Rng.t;
    mutable olds : grp array; (* in invariant-(⋆) order *)
    mutable nonempty_olds : int;
    mutable sing_gids : int EMap.t; (* post-reconstruction singletons *)
    sing_by_gid : (int, elt) Hashtbl.t;
    mutable next_gid : int;
    mutable n : int;
    mutable tau0 : int;
    mutable updates : int; (* updates since last reconstruction *)
    mutable dels_since : int; (* deletions since last reconstruction *)
    mutable recon_count : int;
    (* [by_size.(k)] counts the groups (old or singleton) holding [k]
       members, for [k >= 1]; [max_size] is the largest [k] with a
       nonzero count (0 when there are no groups).  An update changes
       one group's size by one, so the maximum moves by at most one. *)
    mutable by_size : int array;
    mutable max_size : int;
  }

  let try_create ?(epsilon = 1.0) ?(seed = 0x5eed) () =
    match Cq_util.Error.positive ~name:"epsilon" epsilon with
    | Error _ as e -> e
    | Ok epsilon ->
        Ok
          {
            epsilon;
            rng = Cq_util.Rng.create seed;
            olds = [||];
            nonempty_olds = 0;
            sing_gids = EMap.empty;
            sing_by_gid = Hashtbl.create 64;
            next_gid = 0;
            n = 0;
            tau0 = 0;
            updates = 0;
            dels_since = 0;
            recon_count = 0;
            by_size = Array.make 16 0;
            max_size = 0;
          }

  let create ?epsilon ?seed () = Cq_util.Error.ok_exn (try_create ?epsilon ?seed ())

  let size t = t.n
  let num_groups t = t.nonempty_olds + Hashtbl.length t.sing_by_gid
  let reconstructions t = t.recon_count
  let max_group_size t = t.max_size
  let updates_since_reconstruction t = t.updates

  let fresh_gid t =
    let g = t.next_gid in
    t.next_gid <- g + 1;
    g

  (* One group's size moves from [s] to [s'] (0 standing for no
     group).  Within an epoch [s'] is [s ± 1], so when the last group
     of the maximum size shrinks, the maximum is [s']. *)
  let resize t s s' =
    if s' >= Array.length t.by_size then begin
      let a = Array.make (2 * s') 0 in
      Array.blit t.by_size 0 a 0 (Array.length t.by_size);
      t.by_size <- a
    end;
    if s > 0 then t.by_size.(s) <- t.by_size.(s) - 1;
    if s' > 0 then t.by_size.(s') <- t.by_size.(s') + 1;
    if s' > t.max_size then t.max_size <- s'
    else if s = t.max_size && t.by_size.(s) = 0 then t.max_size <- s'

  (* Old groups carry consecutive gids from the reconstruction that
     made them, so a gid indexes [olds] directly. *)
  let old_of_gid t gid =
    let n = Array.length t.olds in
    let i = if n = 0 then -1 else gid - t.olds.(0).gid in
    if i >= 0 && i < n then Some t.olds.(i) else None

  (* Rightmost old group whose boundary <= the element's left endpoint:
     the only old group that can hold it. *)
  let old_candidate t e =
    let lo = I.lo (E.interval e) in
    let n = Array.length t.olds in
    if n = 0 || t.olds.(0).boundary > lo then None
    else begin
      let a = ref 0 and b = ref (n - 1) in
      (* invariant: olds.(a).boundary <= lo *)
      while !a < !b do
        let mid = (!a + !b + 1) / 2 in
        if t.olds.(mid).boundary <= lo then a := mid else b := mid - 1
      done;
      Some t.olds.(!a)
    end

  let mem t e =
    EMap.mem e t.sing_gids
    || match old_candidate t e with Some g -> T.mem e g.treap | None -> false

  (* The paper's insertion refinement (Section 2.3, footnote): if some
     existing stabbing point stabs the new interval, join that group —
     specifically the group of the LEFTMOST such point, which keeps
     invariant (⋆): every earlier group's point lies strictly left of
     the new element's left endpoint. *)
  let refine_candidate t e =
    let iv = E.interval e in
    let n = Array.length t.olds in
    if n = 0 then None
    else begin
      (* First group whose fixed point >= lo. *)
      let a = ref 0 and b = ref n in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if t.olds.(mid).point < I.lo iv then a := mid + 1 else b := mid
      done;
      if !a < n && t.olds.(!a).point <= I.hi iv then Some t.olds.(!a) else None
    end

  (* ------------------------------------------------------------------ *)
  (* Reconstruction stage (Figure 13)                                     *)
  (* ------------------------------------------------------------------ *)

  let full_line = I.make neg_infinity infinity

  let reconstruct_impl t =
    (* Every counted size belongs to a nonempty old group or a
       singleton, so clearing those entries empties [by_size] in
       O(|P|) without touching the rest of the array. *)
    Array.iter (fun g -> t.by_size.(T.size g.treap) <- 0) t.olds;
    t.by_size.(1) <- 0;
    t.max_size <- 0;
    (* Unprocessed inputs: old groups in (⋆) order, singletons in
       left-endpoint order; both consumed from the head. *)
    let olds = ref (List.filter (fun g -> not (T.is_empty g.treap)) (Array.to_list t.olds)) in
    let sings = ref (List.map fst (EMap.bindings t.sing_gids)) in
    let out = Cq_util.Vec.create () in
    (* Active set A: joined old-group pieces [u], pending singletons
       [v], and the common intersection of everything in A. *)
    let u = ref T.empty in
    let v = ref [] in
    let isect = ref full_line in
    let active_nonempty () = (not (T.is_empty !u)) || not (List.is_empty !v) in
    let flush () =
      if active_nonempty () then begin
        let tj = List.fold_left (fun acc e -> T.add t.rng e acc) !u !v in
        Cq_util.Vec.push out tj
      end
    in
    (* Absorb into A the prefix of old group [g] whose left endpoints
       do not exceed r(⋂A); the remainder (possibly all of [g]) stays
       unprocessed at the head. *)
    let absorb_prefix g =
      let piece, rest = T.split_lo_le (I.hi !isect) g.treap in
      if not (T.is_empty piece) then begin
        u := T.join !u piece;
        isect := I.inter !isect (T.isect piece)
      end;
      if T.is_empty rest then olds := List.tl !olds
      else begin
        g.treap <- rest;
        ()
      end
    in
    let continue = ref true in
    while !continue do
      (* K <- next unprocessed set by the left endpoint of its common
         intersection. *)
      let next_old = match !olds with [] -> None | g :: _ -> Some (I.lo (T.isect g.treap)) in
      let next_sing = match !sings with [] -> None | e :: _ -> Some (I.lo (E.interval e)) in
      match (next_old, next_sing) with
      | None, None -> continue := false
      | _ ->
          let k_is_sing =
            match (next_old, next_sing) with
            | Some lo, Some ls -> ls <= lo
            | None, Some _ -> true
            | Some _, None -> false
            | None, None -> assert false
          in
          let l_k = if k_is_sing then Option.get next_sing else Option.get next_old in
          if l_k <= I.hi !isect then
            if k_is_sing then begin
              (* Case 1, singleton: joins A outright. *)
              let e = List.hd !sings in
              sings := List.tl !sings;
              v := e :: !v;
              isect := I.inter !isect (E.interval e)
            end
            else
              (* Case 1, old group: l(⋂K) <= r(⋂A) means the whole
                 group fits; absorb (split is a no-op full take). *)
              absorb_prefix (List.hd !olds)
          else begin
            (* Case 2: close the current group — but first pull in the
               fitting prefix of the leftmost unprocessed old group
               (Figure 15), whose early members may still belong to A
               even though its intersection starts past r(⋂A). *)
            (match !olds with g :: _ -> absorb_prefix g | [] -> ());
            flush ();
            (* Start a fresh active set from K.  (K may itself have
               just lost its prefix to the closed group.) *)
            match (!olds, !sings) with
            | _, e :: rest when k_is_sing ->
                sings := rest;
                u := T.empty;
                v := [ e ];
                isect := E.interval e
            | g :: rest, _ ->
                olds := rest;
                u := g.treap;
                v := [];
                isect := T.isect g.treap
            | [], _ ->
                (* K was an old group that the prefix pull fully
                   consumed; restart from an empty active set. *)
                u := T.empty;
                v := [];
                isect := full_line
          end
    done;
    flush ();
    (* Install the new epoch. *)
    let groups = Cq_util.Vec.to_array out in
    t.olds <-
      Array.map
        (fun treap ->
          let boundary =
            match T.min_elt treap with
            | Some e -> I.lo (E.interval e)
            | None -> assert false
          in
          { gid = fresh_gid t; boundary; point = I.hi (T.isect treap); treap })
        groups;
    t.nonempty_olds <- Array.length t.olds;
    Array.iter (fun g -> resize t 0 (T.size g.treap)) t.olds;
    t.sing_gids <- EMap.empty;
    Hashtbl.reset t.sing_by_gid;
    t.tau0 <- Array.length t.olds;
    t.updates <- 0;
    t.dels_since <- 0;
    t.recon_count <- t.recon_count + 1

  let reconstruct t =
    Metrics.incr m_reconstructions;
    Trace.with_span ~cat:"partition" "refined_partition.reconstruct" (fun () ->
        reconstruct_impl t)

  (* The paper's relaxed trigger: rebuild only once the partition size
     reaches (1+eps)(tau0 - m), where m counts deletions since the last
     rebuild.  Lemma 3's argument gives |P| <= (1+eps)tau(I) at all
     times; with the insertion refinement below, clustered insertions
     rarely grow |P|, so reconstructions are infrequent. *)
  let maybe_reconstruct t =
    let p = float_of_int (num_groups t) in
    if p >= (1.0 +. t.epsilon) *. float_of_int (t.tau0 - t.dels_since) && t.n > 0 then
      reconstruct t

  let insert t e =
    if mem t e then invalid_arg "Refined_partition.insert: element already present";
    (match refine_candidate t e with
    | Some g ->
        if T.is_empty g.treap then t.nonempty_olds <- t.nonempty_olds + 1;
        resize t (T.size g.treap) (T.size g.treap + 1);
        g.treap <- T.add t.rng e g.treap;
        let lo = I.lo (E.interval e) in
        if lo < g.boundary then g.boundary <- lo
    | None ->
        let gid = fresh_gid t in
        t.sing_gids <- EMap.add e gid t.sing_gids;
        Hashtbl.replace t.sing_by_gid gid e;
        resize t 0 1);
    t.n <- t.n + 1;
    t.updates <- t.updates + 1;
    maybe_reconstruct t

  let delete t e =
    match EMap.find_opt e t.sing_gids with
    | Some gid ->
        t.sing_gids <- EMap.remove e t.sing_gids;
        Hashtbl.remove t.sing_by_gid gid;
        resize t 1 0;
        t.n <- t.n - 1;
        t.updates <- t.updates + 1;
        t.dels_since <- t.dels_since + 1;
        maybe_reconstruct t;
        true
    | None -> (
        match old_candidate t e with
        | None -> false
        | Some g -> (
            match T.remove e g.treap with
            | None -> false
            | Some treap ->
                resize t (T.size g.treap) (T.size treap);
                g.treap <- treap;
                if T.is_empty treap then t.nonempty_olds <- t.nonempty_olds - 1;
                t.n <- t.n - 1;
                t.updates <- t.updates + 1;
                t.dels_since <- t.dels_since + 1;
                maybe_reconstruct t;
                true))

  let group_stab treap = I.hi (T.isect treap)

  let groups_in_order t =
    let old_part =
      Array.to_list t.olds
      |> List.filter (fun g -> not (T.is_empty g.treap))
      |> List.map (fun g -> (group_stab g.treap, T.to_list g.treap))
    in
    let sing_part =
      EMap.bindings t.sing_gids |> List.map (fun (e, _) -> (I.hi (E.interval e), [ e ]))
    in
    old_part @ sing_part

  let groups t =
    List.sort (fun (a, _) (b, _) -> Float.compare a b) (groups_in_order t)

  let iter_group_sizes t f =
    Array.iter (fun g -> if not (T.is_empty g.treap) then f g.gid (T.size g.treap)) t.olds;
    Hashtbl.iter (fun gid _ -> f gid 1) t.sing_by_gid

  let group_members t gid =
    match Hashtbl.find_opt t.sing_by_gid gid with
    | Some e -> [ e ]
    | None -> (
        match old_of_gid t gid with
        | Some g when not (T.is_empty g.treap) -> T.to_list g.treap
        | _ -> raise Not_found)

  let group_of t e =
    match EMap.find_opt e t.sing_gids with
    | Some gid -> gid
    | None -> (
        match old_candidate t e with
        | Some g when T.mem e g.treap -> g.gid
        | _ -> raise Not_found)

  let elements t =
    let acc = ref [] in
    Array.iter (fun g -> T.iter (fun e -> acc := e :: !acc) g.treap) t.olds;
    EMap.iter (fun e _ -> acc := e :: !acc) t.sing_gids;
    !acc

  let check_invariants t =
    let fail fmt = Cq_util.Error.corrupt ~structure:"refined_partition" fmt in
    (* Old groups: treap invariants, nonempty intersection, (⋆) order. *)
    Array.iteri
      (fun i g ->
        T.check_invariants g.treap;
        (* A boundary may be −∞, so each group is compared with its
           predecessor only. *)
        if i > 0 && g.boundary <= t.olds.(i - 1).boundary then
          fail "boundaries not strictly increasing";
        if not (T.is_empty g.treap) then begin
          if I.is_empty (T.isect g.treap) then fail "old group with empty intersection";
          T.iter
            (fun e ->
              if I.lo (E.interval e) < g.boundary then fail "member left of its group boundary")
            g.treap
        end)
      t.olds;
    let counted_olds =
      Array.fold_left (fun acc g -> if T.is_empty g.treap then acc else acc + 1) 0 t.olds
    in
    if counted_olds <> t.nonempty_olds then fail "stale nonempty_olds counter";
    let member_total =
      Array.fold_left (fun acc g -> acc + T.size g.treap) 0 t.olds + EMap.cardinal t.sing_gids
    in
    if member_total <> t.n then fail "size mismatch";
    if Hashtbl.length t.sing_by_gid <> EMap.cardinal t.sing_gids then
      fail "singleton maps out of sync";
    Array.iteri
      (fun i g -> if g.gid <> t.olds.(0).gid + i then fail "old group gids not consecutive")
      t.olds;
    (* The size census against a recount. *)
    let recount = Array.make (Array.length t.by_size) 0 and max_size = ref 0 in
    iter_group_sizes t (fun _ sz ->
        if sz >= Array.length recount then fail "group size %d past the size census" sz;
        recount.(sz) <- recount.(sz) + 1;
        max_size := max !max_size sz);
    if !max_size <> t.max_size then fail "stale max_size %d (recount %d)" t.max_size !max_size;
    Array.iteri
      (fun sz c ->
        if sz > 0 && c <> t.by_size.(sz) then
          fail "by_size.(%d) = %d but %d groups have that size" sz t.by_size.(sz) c)
      recount;
    (* Theorem 2 size bound against a freshly computed optimum. *)
    let tau = Stabbing.tau E.interval (Array.of_list (elements t)) in
    let p = num_groups t in
    if float_of_int p > ((1.0 +. t.epsilon) *. float_of_int tau) +. 1e-9 then
      fail "partition size %d exceeds (1+%g) * tau with tau = %d" p t.epsilon tau
end
