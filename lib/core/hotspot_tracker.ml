module I = Cq_interval.Interval
module Metrics = Cq_obs.Metrics
module Trace = Cq_obs.Trace

(* Cross-instance aggregates: every tracker in the process feeds the
   same registry cells (per-instance figures live in the telemetry
   accessors below). *)
let m_promotions = Metrics.counter "tracker.promotions"
let m_demotions = Metrics.counter "tracker.demotions"
let m_moves = Metrics.counter "tracker.moves"
let m_group_size = Metrics.histogram "tracker.hot_group_size"

module Make (E : Partition_intf.ELEMENT) = struct
  module Spart = Refined_partition.Make (E)
  module EMap = Map.Make (E)
  module ESet = Set.Make (E)

  type event =
    | Hotspot_created of int * E.t list
    | Hotspot_destroyed of int * E.t list
    | Hotspot_added of int * E.t
    | Hotspot_removed of int * E.t
    | Scattered_added of E.t
    | Scattered_removed of E.t

  type hgrp = {
    gid : int;
    mutable members : ESet.t;
    mutable size : int; (* ESet.cardinal members, kept in step *)
    (* Always contained in every member; may be narrower than the true
       common intersection after deletions (never widened back). *)
    mutable isect : I.t;
  }

  type t = {
    alpha : float;
    on_event : event -> unit;
    spart : Spart.t;
    hot : (int, hgrp) Hashtbl.t;
    mutable where_hot : hgrp EMap.t;
    mutable next_gid : int;
    mutable n : int;
    mutable move_count : int;
    mutable update_count : int;
    mutable promote_count : int;
    mutable demote_count : int;
    mutable max_group : int;
    (* Work done by insert/delete/stabilize: one per group scanned
       (hot or scattered), one per member a promotion or demotion
       moves. *)
    mutable visits : int;
  }

  let try_create ?(alpha = 0.01) ?(epsilon = 1.0) ?(seed = 0x40757) ?(on_event = fun _ -> ())
      () =
    match
      Cq_util.Error.both
        (Cq_util.Error.in_unit_open_closed ~name:"alpha" alpha)
        (Spart.try_create ~epsilon ~seed ())
    with
    | Error _ as e -> e
    | Ok (alpha, spart) ->
        Ok
          {
            alpha;
            on_event;
            spart;
            hot = Hashtbl.create 16;
            where_hot = EMap.empty;
            next_gid = 0;
            n = 0;
            move_count = 0;
            update_count = 0;
            promote_count = 0;
            demote_count = 0;
            max_group = 0;
            visits = 0;
          }

  let create ?alpha ?epsilon ?seed ?on_event () =
    Cq_util.Error.ok_exn (try_create ?alpha ?epsilon ?seed ?on_event ())

  let size t = t.n
  let num_hotspots t = Hashtbl.length t.hot
  let scattered_count t = Spart.size t.spart
  let scattered t = List.concat_map snd (Spart.groups t.spart)
  let scattered_groups t = Spart.num_groups t.spart
  let moves t = t.move_count
  let updates t = t.update_count
  let promotions t = t.promote_count
  let demotions t = t.demote_count
  let max_group_size t = t.max_group
  let visits t = t.visits

  (* Every structural reorganisation the instance has performed:
     promotions and demotions of hotspot groups plus reconstructions of
     the scattered partition. *)
  let restructures t = t.promote_count + t.demote_count + Spart.reconstructions t.spart

  let mem t e = EMap.mem e t.where_hot || Spart.mem t.spart e

  let coverage t =
    if t.n = 0 then 0.0
    else float_of_int (t.n - Spart.size t.spart) /. float_of_int t.n

  let hotspot_of t e = Option.map (fun g -> g.gid) (EMap.find_opt e t.where_hot)

  let hotspot_stab t gid =
    match Hashtbl.find_opt t.hot gid with
    | Some g -> I.hi g.isect
    | None -> raise Not_found

  let hotspots t =
    Hashtbl.fold (fun gid g acc -> (gid, I.hi g.isect, ESet.elements g.members) :: acc) t.hot []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

  let fresh_gid t =
    let g = t.next_gid in
    t.next_gid <- g + 1;
    g

  (* ------------------------------------------------------------------ *)
  (* Promotion / demotion                                                 *)
  (* ------------------------------------------------------------------ *)

  let promote t members =
    List.iter
      (fun e ->
        ignore (Spart.delete t.spart e);
        t.move_count <- t.move_count + 1;
        t.on_event (Scattered_removed e))
      members;
    let isect =
      List.fold_left (fun acc e -> I.inter acc (E.interval e)) (I.make neg_infinity infinity)
        members
    in
    assert (not (I.is_empty isect));
    let gid = fresh_gid t in
    let sz = List.length members in
    let g = { gid; members = ESet.of_list members; size = sz; isect } in
    Hashtbl.replace t.hot gid g;
    List.iter (fun e -> t.where_hot <- EMap.add e g t.where_hot) members;
    t.promote_count <- t.promote_count + 1;
    t.visits <- t.visits + sz;
    if sz > t.max_group then t.max_group <- sz;
    Metrics.incr m_promotions;
    Metrics.add m_moves sz;
    Metrics.observe m_group_size (float_of_int sz);
    Trace.instant ~cat:"tracker" "tracker.promote";
    t.on_event (Hotspot_created (gid, members))

  let demote t (g : hgrp) =
    Hashtbl.remove t.hot g.gid;
    let members = ESet.elements g.members in
    List.iter (fun e -> t.where_hot <- EMap.remove e t.where_hot) members;
    t.demote_count <- t.demote_count + 1;
    t.visits <- t.visits + g.size;
    Metrics.incr m_demotions;
    Metrics.add m_moves g.size;
    Trace.instant ~cat:"tracker" "tracker.demote";
    t.on_event (Hotspot_destroyed (g.gid, members));
    List.iter
      (fun e ->
        Spart.insert t.spart e;
        t.move_count <- t.move_count + 1;
        t.on_event (Scattered_added e))
      members

  (* Promote every α-hotspot out of I_S and demote every I_H group
     that is no longer an (α/2)-hotspot, repeating until stable: a
     demotion re-inserts intervals into S, which can create fresh
     α-hotspots (Section 2.2's cascading case).  A round costs O(1/α)
     for the hot groups (cached sizes).  The scattered groups are
     scanned only when the largest has reached α·n: the scan visits
     |P_S| ≤ n groups and promotes at least α·n intervals, so it costs
     at most 1/α per interval moved, and (I3) bounds the moves. *)
  let stabilize t =
    let changed = ref true in
    let rounds = ref 0 in
    while !changed do
      incr rounds;
      if !rounds > 1000 then Cq_util.Error.corrupt ~structure:"hotspot_tracker" "stabilize: no fixpoint";
      changed := false;
      let nf = float_of_int t.n in
      (* Promotions. *)
      if float_of_int (Spart.max_group_size t.spart) >= t.alpha *. nf then begin
        let to_promote = ref [] in
        Spart.iter_group_sizes t.spart (fun gid sz ->
            t.visits <- t.visits + 1;
            if float_of_int sz >= t.alpha *. nf then to_promote := gid :: !to_promote);
        List.iter
          (fun gid ->
            (* The group may have vanished if an earlier promotion this
               round triggered a reconstruction of the scattered
               partition; re-check by id. *)
            match Spart.group_members t.spart gid with
            | exception Not_found -> ()
            | members when float_of_int (List.length members) >= t.alpha *. nf ->
                promote t members;
                changed := true
            | _ -> ())
          !to_promote
      end;
      (* Demotions. *)
      let to_demote = ref [] in
      t.visits <- t.visits + Hashtbl.length t.hot;
      Hashtbl.iter
        (fun _ g -> if float_of_int g.size < t.alpha /. 2.0 *. nf then to_demote := g :: !to_demote)
        t.hot;
      List.iter
        (fun g ->
          if Hashtbl.mem t.hot g.gid then begin
            demote t g;
            changed := true
          end)
        !to_demote
    done

  (* ------------------------------------------------------------------ *)
  (* Updates                                                              *)
  (* ------------------------------------------------------------------ *)

  let insert t e =
    if mem t e then invalid_arg "Hotspot_tracker.insert: element already present";
    let iv = E.interval e in
    t.update_count <- t.update_count + 1;
    t.n <- t.n + 1;
    (* First try to absorb into an existing hotspot (O(1/α) scan of the
       maintained common intersections). *)
    t.visits <- t.visits + Hashtbl.length t.hot;
    let target =
      Hashtbl.fold
        (fun _ g acc ->
          match acc with
          | Some _ -> acc
          | None -> if I.overlaps g.isect iv then Some g else None)
        t.hot None
    in
    (match target with
    | Some g ->
        g.isect <- I.inter g.isect iv;
        g.members <- ESet.add e g.members;
        g.size <- g.size + 1;
        t.where_hot <- EMap.add e g t.where_hot;
        if g.size > t.max_group then t.max_group <- g.size;
        t.on_event (Hotspot_added (g.gid, e))
    | None ->
        Spart.insert t.spart e;
        t.on_event (Scattered_added e));
    stabilize t

  let delete t e =
    match EMap.find_opt e t.where_hot with
    | Some g ->
        t.update_count <- t.update_count + 1;
        t.n <- t.n - 1;
        g.members <- ESet.remove e g.members;
        g.size <- g.size - 1;
        t.where_hot <- EMap.remove e t.where_hot;
        t.on_event (Hotspot_removed (g.gid, e));
        if g.size = 0 then begin
          Hashtbl.remove t.hot g.gid;
          t.on_event (Hotspot_destroyed (g.gid, []))
        end;
        stabilize t;
        true
    | None ->
        if Spart.delete t.spart e then begin
          t.update_count <- t.update_count + 1;
          t.n <- t.n - 1;
          t.on_event (Scattered_removed e);
          stabilize t;
          true
        end
        else false

  (* ------------------------------------------------------------------ *)
  (* Invariants                                                           *)
  (* ------------------------------------------------------------------ *)

  let check_invariants t =
    let fail fmt = Cq_util.Error.corrupt ~structure:"hotspot_tracker" fmt in
    let nf = float_of_int t.n in
    (* Structural consistency. *)
    Spart.check_invariants t.spart;
    Hashtbl.iter
      (fun gid g ->
        if gid <> g.gid then fail "hotspot id mismatch";
        if ESet.is_empty g.members then fail "empty hotspot retained";
        if g.size <> ESet.cardinal g.members then
          fail "hotspot %d caches size %d but has %d members" gid g.size (ESet.cardinal g.members);
        if I.is_empty g.isect then fail "hotspot with empty intersection";
        ESet.iter
          (fun e ->
            if not (I.contains (E.interval e) g.isect) then
              fail "hotspot member does not contain group intersection";
            match EMap.find_opt e t.where_hot with
            | Some g' when g' == g -> ()
            | _ -> fail "where_hot out of sync")
          g.members)
      t.hot;
    let hot_total = Hashtbl.fold (fun _ g acc -> acc + ESet.cardinal g.members) t.hot 0 in
    if hot_total + Spart.size t.spart <> t.n then fail "size accounting broken";
    if EMap.cardinal t.where_hot <> hot_total then fail "where_hot cardinality broken";
    (* (I1): every hotspot is at least an (α/2)-hotspot, and S holds no
       α-hotspot. *)
    Hashtbl.iter
      (fun gid g ->
        if float_of_int g.size < (t.alpha /. 2.0 *. nf) -. 1e-9 then
          fail "hotspot %d below the alpha/2 threshold" gid)
      t.hot;
    Spart.iter_group_sizes t.spart (fun gid sz ->
        if float_of_int sz >= t.alpha *. nf && t.n > 0 then
          fail "scattered group %d is an unpromoted alpha-hotspot" gid);
    if float_of_int (num_hotspots t) > (2.0 /. t.alpha) +. 1e-9 then
      fail "more than 2/alpha hotspots";
    (* (I2): |I| <= (1+eps)tau(I) + 2/alpha — the scattered partition
       already enforces its own (1+eps)tau(S) <= (1+eps)tau(I) bound in
       Spart.check_invariants, so only the hotspot count can add more,
       and it is bounded above. *)
    (* (I3): amortised moves.  The credit argument yields at most 5
       credits per update. *)
    if t.move_count > (5 * t.update_count) + 1 then
      fail "moves %d exceed 5 per update (updates = %d)" t.move_count t.update_count

  (* ------------------------------------------------------------------ *)
  (* Test-only corruption hooks                                           *)
  (* ------------------------------------------------------------------ *)

  module Testing = struct
    let some_hot_group t =
      Hashtbl.fold (fun _ g acc -> match acc with Some _ -> acc | None -> Some g) t.hot None

    let corrupt_where_hot t =
      match some_hot_group t with
      | Some g when not (ESet.is_empty g.members) ->
          t.where_hot <- EMap.remove (ESet.min_elt g.members) t.where_hot;
          true
      | _ -> false

    let corrupt_size t =
      match some_hot_group t with
      | Some g ->
          g.size <- g.size + 1;
          true
      | None -> false

    let corrupt_isect t =
      match some_hot_group t with
      | Some g ->
          g.isect <- I.make neg_infinity infinity;
          true
      | None -> false
  end
end
