(* ccserve — sampling-as-a-service daemon.

   Serves spanning-tree sampling over a Unix-domain socket speaking the
   newline-delimited JSON protocol of Cc_serve.Protocol: clients submit
   {"graph": ..., "k": N, "seed": s, "method": ...} lines and stream back
   tree responses. Prepared plans (the graph-only half of the sampler
   pipeline) are cached by canonical graph fingerprint, so repeated
   requests for the same graph skip preprocessing and pay only the walk +
   matching phases. [cctree sample --connect SOCK] is the bundled client.
   With -v, the server's lifecycle lines (listening, each connection's
   accept, requests, completions, errors and close, the drain) go to
   stderr. *)

module Server = Cc_serve.Server
open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning)

let exit_usage = 2

let fail_usage msg =
  prerr_endline ("ccserve: " ^ msg);
  exit exit_usage

let sock_t =
  let doc = "Unix-domain socket path to serve on." in
  Arg.(
    value
    & opt string "/tmp/ccserve.sock"
    & info [ "sock" ] ~doc ~docv:"PATH")

let cache_cap_t =
  let doc = "Plan-cache capacity (prepared graphs retained, LRU)." in
  Arg.(value & opt int 8 & info [ "cache-cap" ] ~doc ~docv:"N")

let max_requests_t =
  let doc =
    "Drain and exit after $(docv) answered requests, served or failed \
     (tests and CI; the default is to serve until SIGTERM/SIGINT)."
  in
  Arg.(value & opt (some int) None & info [ "max-requests" ] ~doc ~docv:"N")

let metrics_json_t =
  let doc =
    "Write the metrics registry (server.requests, server.cache.*, queue \
     depth, request latency histogram) as JSON to $(docv) at exit — \
     readable by $(b,ccprof summary)."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-json" ] ~doc ~docv:"FILE")

let verbose_t =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Log the server's lifecycle lines (cc.serve at Info) to stderr.")

let run verbose sock cache_cap max_requests metrics_json =
  setup_logs verbose;
  if cache_cap < 1 then fail_usage "--cache-cap must be >= 1";
  (match max_requests with
  | Some n when n < 1 -> fail_usage "--max-requests must be >= 1"
  | _ -> ());
  let config = { Server.sock; cache_cap; max_requests } in
  let srv = try Server.create config with Failure m -> fail_usage m in
  List.iter
    (fun s ->
      Sys.set_signal s (Sys.Signal_handle (fun _ -> Server.request_stop srv)))
    [ Sys.sigterm; Sys.sigint ];
  let finish () =
    match metrics_json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Cc_obs.Json.to_string (Cc_obs.Metrics.to_json ()));
        output_char oc '\n';
        close_out oc
  in
  Fun.protect ~finally:finish (fun () -> Server.run srv)

let main =
  let doc = "Spanning-tree sampling as a service (plan-caching daemon)." in
  let info = Cmd.info "ccserve" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const run $ verbose_t $ sock_t $ cache_cap_t $ max_requests_t
      $ metrics_json_t)

let () = exit (Cmd.eval main)
