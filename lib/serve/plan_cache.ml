module Metrics = Cc_obs.Metrics

type 'a entry = { value : 'a; mutable last_used : int }

type 'a t = {
  cap : int;
  table : (string, 'a entry) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~cap =
  if cap < 1 then invalid_arg "Plan_cache.create: cap < 1";
  {
    cap;
    table = Hashtbl.create (2 * cap);
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best <= e.last_used -> acc
        | _ -> Some (key, e.last_used))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1;
      Metrics.incr "server.cache.evict"

let find_or_add t key ~make =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.table key with
  | Some e ->
      e.last_used <- t.tick;
      t.hits <- t.hits + 1;
      Metrics.incr "server.cache.hit";
      (e.value, true)
  | None ->
      t.misses <- t.misses + 1;
      Metrics.incr "server.cache.miss";
      let value = make () in
      if Hashtbl.length t.table >= t.cap then evict_lru t;
      Hashtbl.add t.table key { value; last_used = t.tick };
      (value, false)

let stats t = (t.hits, t.misses, t.evictions)
