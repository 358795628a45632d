module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Prng = Cc_util.Prng
module Net = Cc_clique.Net
module Metrics = Cc_obs.Metrics
module Recorder = Cc_obs.Recorder

let src = Logs.Src.create "cc.serve" ~doc:"ccserve daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type config = { sock : string; cache_cap : int; max_requests : int option }

let default_config ~sock = { sock; cache_cap = 8; max_requests = None }

type job = {
  req : Protocol.request;
  plan : Methods.plan;
  cache_hit : bool;
  net : Net.t;
  recorder : Recorder.t;
  master : Prng.t;  (* tree i draws from the i-th sequential split *)
  mutable drawn : int;
  started : float;
}

type conn = {
  cid : int;
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable out : string;  (* pending response bytes *)
  mutable queue : Protocol.request list;  (* parsed, FIFO (reversed) *)
  mutable job : job option;
  mutable alive : bool;
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  cache : Methods.plan Plan_cache.t;
  mutable conns : conn list;
  mutable next_cid : int;
  mutable rr : int;  (* round-robin cursor over active jobs *)
  mutable stop : bool;
  mutable drained : bool;
  mutable served : int;
}

let max_line_bytes = 8 * 1024 * 1024

(* --- socket lifecycle --- *)

(* A socket file with nobody accepting is a stale leftover from a crashed
   server: probe-connect distinguishes the two. *)
let claim_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
          false
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then failwith (Printf.sprintf "Server.create: %s already serving" path);
    (try Unix.unlink path with Unix.Unix_error _ -> ())
  end

let create config =
  (* A client that hangs up mid-stream must cost only its own connection:
     with SIGPIPE ignored, the write fails with EPIPE and [flush_conn]
     closes that connection instead of the signal killing the daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  claim_socket config.sock;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX config.sock);
     Unix.listen fd 16;
     Unix.set_nonblock fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      config;
      listen_fd = fd;
      cache = Plan_cache.create ~cap:config.cache_cap;
      conns = [];
      next_cid = 0;
      rr = 0;
      stop = false;
      drained = false;
      served = 0;
    }
  in
  Log.info (fun m -> m "listening on %s" config.sock);
  t

let sock_path t = t.config.sock
let served t = t.served
let connections t = List.length (List.filter (fun c -> c.alive) t.conns)
let cache_stats t = Plan_cache.stats t.cache
let request_stop t = t.stop <- true

(* --- request execution --- *)

let plan_key req =
  Methods.name req.Protocol.meth ^ ":" ^ Graph.fingerprint req.Protocol.graph

let start_job t conn (req : Protocol.request) =
  let plan, cache_hit =
    Plan_cache.find_or_add t.cache (plan_key req) ~make:(fun () ->
        Methods.prepare req.meth req.graph)
  in
  let n = Graph.n req.graph in
  let net = Net.create ~n in
  let recorder = Recorder.create ~max_records:0 ~machines:n () in
  Net.add_sink net (Recorder.add recorder);
  Metrics.incr "server.requests";
  Log.info (fun m ->
      m "conn %d: request %s k=%d %s" conn.cid
        (Methods.name req.meth)
        req.k
        (if cache_hit then "hit" else "miss"));
  conn.job <-
    Some
      {
        req;
        plan;
        cache_hit;
        net;
        recorder;
        master = Prng.create ~seed:req.seed;
        drawn = 0;
        started = Unix.gettimeofday ();
      }

(* Every request that leaves the queue counts, done or failed; reaching
   [max_requests] starts the drain. *)
let count_served t =
  t.served <- t.served + 1;
  match t.config.max_requests with
  | Some n when t.served >= n -> t.stop <- true
  | _ -> ()

let finish_job t conn job =
  let ms = 1000.0 *. (Unix.gettimeofday () -. job.started) in
  Metrics.observe "server.request_ms" ms;
  conn.out <-
    conn.out
    ^ Protocol.done_line ?id:job.req.Protocol.id ~k:job.req.Protocol.k
        ~cache_hit:job.cache_hit
        ~digest:(Recorder.digest_hex job.recorder)
        ~rounds:(Net.rounds job.net) ();
  conn.job <- None;
  count_served t;
  Log.info (fun m -> m "conn %d: done in %.1f ms" conn.cid ms)

let fail_job t conn job message =
  conn.out <- conn.out ^ Protocol.error_line ?id:job.req.Protocol.id message;
  conn.job <- None;
  count_served t;
  Log.info (fun m -> m "conn %d: error: %s" conn.cid message)

(* --- input handling --- *)

let enqueue_line conn line =
  if String.trim line = "" then ()
  else
    match Protocol.parse_request line with
    | Ok req -> conn.queue <- req :: conn.queue
    | Error msg ->
        conn.out <- conn.out ^ Protocol.error_line msg;
        Log.info (fun m -> m "conn %d: error: %s" conn.cid msg)

let split_lines conn =
  let s = Buffer.contents conn.inbuf in
  let rec go start =
    match String.index_from_opt s start '\n' with
    | Some nl ->
        enqueue_line conn (String.sub s start (nl - start));
        go (nl + 1)
    | None ->
        Buffer.clear conn.inbuf;
        Buffer.add_substring conn.inbuf s start (String.length s - start)
  in
  go 0

let close_conn conn =
  if conn.alive then begin
    conn.alive <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Log.info (fun m -> m "conn %d: closed" conn.cid)
  end

let read_conn conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 ->
      (* EOF: serve what was already queued, then the flush path closes. *)
      if conn.out = "" && conn.job = None && conn.queue = [] then
        close_conn conn
  | len ->
      Buffer.add_subbytes conn.inbuf chunk 0 len;
      split_lines conn;
      if Buffer.length conn.inbuf > max_line_bytes then begin
        conn.out <- conn.out ^ Protocol.error_line "request line too long";
        close_conn conn
      end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> close_conn conn

let flush_conn conn =
  if conn.alive && conn.out <> "" then
    match
      Unix.write_substring conn.fd conn.out 0 (String.length conn.out)
    with
    | n ->
        conn.out <- String.sub conn.out n (String.length conn.out - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> close_conn conn

let accept_conns t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        let cid = t.next_cid in
        t.next_cid <- cid + 1;
        t.conns <-
          t.conns
          @ [
              {
                cid;
                fd;
                inbuf = Buffer.create 256;
                out = "";
                queue = [];
                job = None;
                alive = true;
              };
            ];
        Log.info (fun m -> m "conn %d: accepted" cid);
        go ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* --- the loop --- *)

let active_jobs t = List.filter (fun c -> c.alive && c.job <> None) t.conns

let step t =
  if t.drained then false
  else begin
    let live = List.filter (fun c -> c.alive) t.conns in
    let busy =
      active_jobs t <> []
      || List.exists (fun c -> c.out <> "" || (c.queue <> [] && not t.stop)) live
    in
    let readable = List.map (fun c -> c.fd) live in
    let readable = if t.stop then readable else t.listen_fd :: readable in
    let writable =
      List.filter_map (fun c -> if c.out <> "" then Some c.fd else None) live
    in
    let timeout = if busy then 0.0 else 0.05 in
    let rd, _, _ =
      match Unix.select readable writable [] timeout with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if (not t.stop) && List.mem t.listen_fd rd then accept_conns t;
    List.iter
      (fun c -> if c.alive && List.mem c.fd rd then read_conn c)
      t.conns;
    (* Start queued requests (skipped while draining). *)
    List.iter
      (fun c ->
        if c.alive && c.job = None && not t.stop then
          match List.rev c.queue with
          | [] -> ()
          | req :: rest -> (
              c.queue <- List.rev rest;
              try start_job t c req
              with
              | Invalid_argument msg | Failure msg ->
                  c.out <- c.out ^ Protocol.error_line ?id:req.Protocol.id msg;
                  count_served t;
                  Log.info (fun m -> m "conn %d: error: %s" c.cid msg)))
      t.conns;
    (* One tree for one job, round-robin across connections. *)
    (match active_jobs t with
    | [] -> ()
    | jobs ->
        let c = List.nth jobs (t.rr mod List.length jobs) in
        t.rr <- t.rr + 1;
        let job = Option.get c.job in
        (* The header is the exact bytes [cctree sample --count] prints
           for this tree, so a client reproduces one-shot stdout. *)
        (match job.plan (job.drawn + 1) job.net (Prng.split job.master) with
        | d ->
            job.drawn <- job.drawn + 1;
            c.out <-
              c.out
              ^ Protocol.tree_line ?id:job.req.Protocol.id
                  ~index:(job.drawn - 1) ~header:d.Methods.header
                  ~edges:(Tree.edges d.Methods.tree) ();
            if job.drawn >= job.req.Protocol.k then finish_job t c job
        | exception (Invalid_argument m | Failure m) -> fail_job t c job m
        | exception e -> fail_job t c job (Printexc.to_string e)));
    let queued =
      List.fold_left
        (fun acc c -> if c.alive then acc + List.length c.queue else acc)
        0 t.conns
    in
    Metrics.set_gauge "server.queue_depth" (float_of_int queued);
    Metrics.set_gauge "server.connections" (float_of_int (connections t));
    List.iter flush_conn t.conns;
    t.conns <- List.filter (fun c -> c.alive) t.conns;
    if
      t.stop
      && List.for_all (fun c -> c.out = "" && c.job = None) t.conns
    then begin
      List.iter close_conn t.conns;
      t.conns <- [];
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink t.config.sock with Unix.Unix_error _ -> ());
      Log.info (fun m -> m "drained after %d request(s)" t.served);
      t.drained <- true
    end;
    not t.drained
  end

let run t = while step t do () done
