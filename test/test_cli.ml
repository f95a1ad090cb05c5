(* End-to-end tests of the installed binaries: generate an instance with the
   CLI, inspect it, solve it, and check the outputs stay consistent with the
   library run directly on the same file. *)

let check = Alcotest.(check bool)

(* Resolve the CLI binary both under `dune runtest` (cwd = test dir in
   _build) and when the test executable is launched from the repo root. *)
let cli =
  let exe_dir = Filename.dirname Sys.executable_name in
  let candidates =
    [
      Filename.concat exe_dir "../bin/semimatch_cli.exe";
      "../bin/semimatch_cli.exe";
      "_build/default/bin/semimatch_cli.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> List.hd candidates

let experiments = Filename.concat (Filename.dirname cli) "experiments_main.exe"

let run_capture args =
  let command = Filename.quote_command cli args in
  let ic = Unix.open_process_in command in
  let output = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  (status, output)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let with_temp f =
  let path = Filename.temp_file "semimatch_cli" ".hg" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let expect_ok (status, output) =
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.failf "CLI exited %d: %s" c output
  | _ -> Alcotest.failf "CLI killed: %s" output);
  output

let test_gen_info_solve_roundtrip () =
  with_temp (fun path ->
      let out =
        expect_ok
          (run_capture
             [ "gen"; "--tasks"; "120"; "--procs"; "24"; "--groups"; "4"; "--dv"; "3"; "--dh"; "4";
               "--weights"; "related"; "--seed"; "9"; "-o"; path ])
      in
      check "gen reports size" true (contains ~needle:"120 tasks" out);
      let info = expect_ok (run_capture [ "info"; "--verbose"; path ]) in
      check "info shows LB" true (contains ~needle:"lower bound (Eq. 1)" info);
      check "verbose histograms" true (contains ~needle:"configurations per task" info);
      (* Solve through the CLI and through the library; makespans must
         agree because both read the same file deterministically. *)
      let solve_out = expect_ok (run_capture [ "solve"; "-a"; "sgh"; path ]) in
      let h = Hyper.Io.load path in
      let expected =
        Semimatch.Greedy_hyper.makespan Semimatch.Greedy_hyper.Sorted_greedy_hyp h
      in
      check "CLI solve matches library" true
        (contains ~needle:(Printf.sprintf "makespan:  %g" expected) solve_out))

let test_compare_lists_all () =
  with_temp (fun path ->
      ignore
        (expect_ok
           (run_capture
              [ "gen"; "--tasks"; "60"; "--procs"; "12"; "--groups"; "3"; "--seed"; "4"; "-o"; path ]));
      let out = expect_ok (run_capture [ "compare"; path ]) in
      List.iter
        (fun algo ->
          check (Semimatch.Greedy_hyper.name algo ^ " listed") true
            (contains ~needle:(Semimatch.Greedy_hyper.name algo) out))
        Semimatch.Greedy_hyper.all)

let test_exact_on_singleproc () =
  with_temp (fun path ->
      ignore
        (expect_ok
           (run_capture
              [ "gen-sp"; "--tasks"; "60"; "--procs"; "12"; "--groups"; "3"; "--degree"; "3";
                "--seed"; "2"; "-o"; path ]));
      let out = expect_ok (run_capture [ "exact"; path ]) in
      check "prints optimum" true (contains ~needle:"optimal makespan:" out);
      let bisect = expect_ok (run_capture [ "exact"; "--strategy"; "bisection"; path ]) in
      (* Both strategies print the same optimum (prefix before '('). *)
      let prefix s = List.hd (String.split_on_char '(' s) in
      Alcotest.(check string) "strategies agree" (prefix out) (prefix bisect))

(* A batch spawns at most one helper per task beyond the caller, so a
   --jobs far above the runtime's 128-domain limit still answers: 5 helpers
   for the 6-solver portfolio. *)
let test_jobs_above_domain_limit () =
  let line_with ~prefix out =
    match List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' out) with
    | Some l -> l
    | None -> Alcotest.failf "no %S line in: %s" prefix out
  in
  with_temp (fun path ->
      ignore
        (expect_ok
           (run_capture
              [ "gen"; "--tasks"; "80"; "--procs"; "16"; "--groups"; "4"; "--seed"; "5"; "-o"; path ]));
      let wide = expect_ok (run_capture [ "solve"; "--jobs"; "200"; path ]) in
      let single = expect_ok (run_capture [ "solve"; "--portfolio"; "--jobs"; "1"; path ]) in
      Alcotest.(check string) "solve makespan" (line_with ~prefix:"makespan:" single)
        (line_with ~prefix:"makespan:" wide))

let test_exact_rejects_multiproc () =
  with_temp (fun path ->
      ignore
        (expect_ok
           (run_capture [ "gen"; "--tasks"; "40"; "--procs"; "8"; "--groups"; "2"; "-o"; path ]));
      let command = Filename.quote_command cli [ "exact"; path ] ~stderr:"/dev/null" in
      let status = Sys.command command in
      Alcotest.(check int) "exit 1" 1 status)

let test_simulate () =
  with_temp (fun path ->
      ignore
        (expect_ok
           (run_capture
              [ "gen"; "--tasks"; "30"; "--procs"; "6"; "--groups"; "2"; "--seed"; "3"; "-o"; path ]));
      let out = expect_ok (run_capture [ "simulate"; "--policy"; "spt"; "--width"; "40"; path ]) in
      check "mentions makespan" true (contains ~needle:"makespan" out);
      check "draws rows" true (contains ~needle:"P0" out))

(* --- error paths: every operator mistake is one short diagnostic on
   stderr and exit 2, never an OCaml backtrace. --- *)

let run_capture_err ?(exe = cli) args =
  let command = Filename.quote_command exe args ^ " 2>&1" in
  let ic = Unix.open_process_in command in
  let output = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  (status, output)

let expect_clean_failure name (status, output) =
  (match status with
  | Unix.WEXITED 2 -> ()
  | Unix.WEXITED c -> Alcotest.failf "%s: expected exit 2, got %d: %s" name c output
  | _ -> Alcotest.failf "%s: CLI killed: %s" name output);
  check (name ^ ": no backtrace") false (contains ~needle:"Raised at" output);
  check (name ^ ": no raw exception") false (contains ~needle:"Fatal error" output);
  output

let count_lines s =
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 s

let test_missing_instance_file () =
  let out =
    expect_clean_failure "missing file" (run_capture_err [ "solve"; "/nonexistent/instance.hg" ])
  in
  check "names the program" true (contains ~needle:"semimatch_cli:" out);
  Alcotest.(check int) "one-line diagnostic" 1 (count_lines out)

let test_corrupt_instance_file () =
  with_temp (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "hypergraph 2 2\nh 0 not-a-weight 0\n");
      let out = expect_clean_failure "corrupt file" (run_capture_err [ "solve"; path ]) in
      check "line-numbered parse error" true (contains ~needle:"line 2" out);
      Alcotest.(check int) "one-line diagnostic" 1 (count_lines out))

let test_unknown_flag () =
  ignore (expect_clean_failure "unknown flag" (run_capture_err [ "solve"; "--frobnicate"; "x" ]));
  ignore (expect_clean_failure "unknown command" (run_capture_err [ "frobnicate" ]));
  let out =
    expect_clean_failure "experiments_main unknown flag"
      (run_capture_err ~exe:experiments [ "sweep"; "--frobnicate" ])
  in
  Alcotest.(check int) "experiments_main unknown flag: one line" 1 (count_lines out)

(* A count, a width or a portfolio budget of zero or less is a usage
   error: one line naming the option, exit 2, before any work (an instance
   that would otherwise solve is given, and serve gets no listener, so
   only the option can be what fails).  experiments_main keeps the same
   contract for its counts and its weight schemes. *)
let test_nonpositive_jobs_and_timeout () =
  with_temp (fun path ->
      ignore
        (expect_ok
           (run_capture [ "gen"; "--tasks"; "20"; "--procs"; "4"; "--groups"; "2"; "-o"; path ]));
      let rejects ?exe ~option ~expected args =
        let name = String.concat " " args in
        let out = expect_clean_failure name (run_capture_err ?exe args) in
        Alcotest.(check int) (name ^ ": one line") 1 (count_lines out);
        check (name ^ ": names " ^ option) true (contains ~needle:option out);
        check (name ^ ": says what is expected") true (contains ~needle:expected out);
        check (name ^ ": no internal error") false (contains ~needle:"internal error" out)
      in
      List.iter (rejects ~option:"--jobs" ~expected:"expected a positive integer")
        [
          [ "solve"; "--jobs"; "0"; path ];
          [ "solve"; "--jobs=-2"; path ];
          [ "solve"; "--deadline"; "5"; "--jobs"; "0"; path ];
          [ "profile"; "--jobs"; "0"; path ];
          [ "serve"; "--jobs"; "0" ];
        ];
      List.iter (rejects ~option:"--timeout" ~expected:"expected a positive number")
        [
          [ "solve"; "--portfolio"; "--timeout"; "0"; path ];
          [ "solve"; "--portfolio"; "--timeout=-1"; path ];
          [ "solve"; "--portfolio"; "--timeout=nan"; path ];
        ];
      rejects ~option:"--width" ~expected:"expected a positive integer"
        [ "simulate"; "--width"; "0"; path ];
      let out = expect_ok (run_capture [ "solve"; "--portfolio"; "--timeout"; "inf"; path ]) in
      check "--timeout inf: no deadline" true (contains ~needle:"winner:" out);
      List.iter
        (fun (option, args) ->
          rejects ~exe:experiments ~option ~expected:"expected a positive integer" args)
        [
          ("--jobs", [ "sweep"; "--jobs"; "0" ]);
          ("--scale", [ "table2"; "--scale"; "0" ]);
          ("--scale", [ "table2"; "--scale=-1" ]);
          ("--seeds", [ "table2"; "--seeds"; "0" ]);
          ("--seeds", [ "faults"; "--seeds"; "0" ]);
          ("--seeds", [ "robustness"; "--seeds"; "0" ]);
          ("--seeds", [ "singleproc-weighted"; "--seeds"; "0" ]);
          ("-d", [ "singleproc"; "-d"; "0" ]);
          ("-d", [ "online"; "-d"; "0" ]);
          ("--orders", [ "online"; "--orders"; "0" ]);
          ("--trials", [ "hardness"; "--trials"; "0" ]);
        ];
      List.iter (rejects ~exe:experiments ~option:"--weights" ~expected:"expected one of")
        [ [ "sweep"; "--weights"; "foo" ]; [ "bounds"; "--weights"; "foo" ] ])

let test_unwritable_trace () =
  with_temp (fun path ->
      ignore
        (expect_ok
           (run_capture [ "gen"; "--tasks"; "20"; "--procs"; "4"; "--groups"; "2"; "-o"; path ]));
      let out =
        expect_clean_failure "unwritable trace"
          (run_capture_err [ "solve"; "--trace"; "/nonexistent-dir/t.json"; path ])
      in
      check "names the path" true (contains ~needle:"/nonexistent-dir/t.json" out))

let test_bad_fault_spec () =
  with_temp (fun path ->
      ignore
        (expect_ok
           (run_capture [ "gen"; "--tasks"; "20"; "--procs"; "4"; "--groups"; "2"; "-o"; path ]));
      let out =
        expect_clean_failure "bad fault spec"
          (run_capture_err [ "solve"; "--faults"; "flood:3"; path ])
      in
      check "explains the grammar" true (contains ~needle:"crash:P" out);
      let out =
        expect_clean_failure "fault proc out of range"
          (run_capture_err [ "simulate"; "--faults"; "crash:99"; path ])
      in
      check "range check names p" true (contains ~needle:"out of range" out);
      ignore
        (expect_clean_failure "--repair without --faults"
           (run_capture_err [ "solve"; "--repair"; path ]));
      ignore
        (expect_clean_failure "bad policy"
           (run_capture_err [ "simulate"; "--policy"; "zzz"; path ])))

let test_faulted_solve_and_simulate () =
  (* The happy path of the new flags: repair after crashes, a deadline
     budget, and a degraded simulation all work end to end. *)
  with_temp (fun path ->
      ignore
        (expect_ok
           (run_capture
              [ "gen"; "--tasks"; "40"; "--procs"; "8"; "--groups"; "2"; "--seed"; "5"; "-o"; path ]));
      let out =
        expect_ok (run_capture [ "solve"; "--faults"; "crash:0,slow:1x2"; "--repair"; path ])
      in
      check "prints the plan" true (contains ~needle:"crash:0" out);
      check "prints repair stats" true (contains ~needle:"moved" out);
      check "prints repaired makespan" true (contains ~needle:"repaired makespan" out);
      let out = expect_ok (run_capture [ "solve"; "--deadline"; "5000"; path ]) in
      check "names the winning tier" true (contains ~needle:"tier" out);
      let out =
        expect_ok
          (run_capture [ "simulate"; "--faults"; "crash:0"; "--repair"; "--width"; "40"; path ])
      in
      check "degraded makespan reported" true (contains ~needle:"makespan" out))

let test_version () =
  let out = expect_ok (run_capture [ "version" ]) in
  Alcotest.(check int) "one line" 1 (count_lines out);
  check "names the package" true (contains ~needle:"semimatch " out);
  check "reports domains" true (contains ~needle:"domains=" out);
  check "reports obs" true (contains ~needle:"obs=" out);
  check "names the CRC kernel" true
    (contains ~needle:"crc32=clmul" out || contains ~needle:"crc32=slicing-by-16" out)

let test_client_without_server () =
  (* No daemon on the socket: one clean diagnostic, exit 2. *)
  let out =
    expect_clean_failure "client, no server"
      (run_capture_err
         [ "client"; "--socket"; "/tmp/semimatch-test-no-such.sock"; "--request"; {|{"op":"ping"}|} ])
  in
  check "names the socket" true (contains ~needle:"no-such.sock" out);
  ignore
    (expect_clean_failure "client without transport" (run_capture_err [ "client"; "--request"; "{}" ]));
  ignore
    (expect_clean_failure "serve without listener" (run_capture_err [ "serve" ]))

let test_loadgen_and_metrics_e2e () =
  (* The full service loop against a real daemon: loadgen reports per-op
     quantiles, the metrics scrape lints clean, and shutdown is orderly. *)
  let sock = Filename.temp_file "semimatch_e2e" ".sock" in
  Sys.remove sock;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; sock |]
      devnull devnull devnull
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 5.0 in
      while not (Sys.file_exists sock) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.02
      done;
      check "daemon came up" true (Sys.file_exists sock);
      let out =
        expect_ok
          (run_capture
             [ "loadgen"; "--socket"; sock; "--duration"; "0.4"; "--rate"; "80"; "--seed"; "1" ])
      in
      check "loadgen headline" true (contains ~needle:"replies/s" out);
      check "per-op quantile columns" true (contains ~needle:"p95_ms" out);
      check "add_task row present" true (contains ~needle:"add_task" out);
      let prom = expect_ok (run_capture [ "client"; "--socket"; sock; "--metrics" ]) in
      check "exposition has TYPE lines" true (contains ~needle:"# TYPE" prom);
      check "server gauges exported" true (contains ~needle:"semimatch_server_sessions" prom);
      (match Obs.Prom.lint prom with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "scraped exposition fails lint: %s" msg);
      ignore
        (expect_ok (run_capture [ "client"; "--socket"; sock; "--request"; {|{"op":"shutdown"}|} ]));
      ignore (Unix.waitpid [] pid))

(* --- doctor: offline bundle validation.  The happy path validates and
   replays a bundle written in-process; every corruption is one clean
   diagnostic and exit 2. --- *)

let test_doctor_validates_and_replays () =
  Obs.with_recording (fun () ->
      let dir = Filename.temp_file "semimatch_doctor" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
      in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists dir then rm dir)
        (fun () ->
          Obs.Events.emit "doctor.test" [ Obs.Events.int "x" 1 ];
          ignore (Obs.Span.timed "server.resolve" (fun () -> Sys.opaque_identity ()));
          let h =
            Hyper.Graph.create ~n1:2 ~n2:2
              ~hyperedges:[ (0, [| 0 |], 1.0); (0, [| 1 |], 2.0); (1, [| 1 |], 1.0) ]
          in
          let bundle =
            match
              Obs.Recorder.write_bundle ~dir ~trigger:"stall" ~rule:"stall:80"
                ~extra:
                  [ ("instance.hg", Hyper.Io.to_string h); ("request.json", {|{"op":"resolve"}|}) ]
                ~version:"test" ()
            with
            | Ok b -> b
            | Error msg -> Alcotest.failf "write_bundle failed: %s" msg
          in
          let out = expect_ok (run_capture [ "doctor"; bundle ]) in
          check "verdict" true (contains ~needle:"bundle OK" out);
          check "trigger summarized" true (contains ~needle:"stall (rule stall:80)" out);
          check "slowest spans listed" true (contains ~needle:"slowest spans" out);
          check "captured instance replayed" true
            (contains ~needle:"portfolio best makespan" out);
          (* A size mismatch between disk and manifest is corruption. *)
          let events = Filename.concat bundle "events.jsonl" in
          let saved = In_channel.with_open_bin events In_channel.input_all in
          Out_channel.with_open_bin events (fun oc -> Out_channel.output_string oc "");
          ignore (expect_clean_failure "truncated file" (run_capture_err [ "doctor"; bundle ]));
          Out_channel.with_open_bin events (fun oc -> Out_channel.output_string oc saved);
          (* An unparseable manifest is corruption... *)
          let manifest = Filename.concat bundle "manifest.json" in
          Out_channel.with_open_bin manifest (fun oc -> Out_channel.output_string oc "{not json");
          ignore (expect_clean_failure "corrupt manifest" (run_capture_err [ "doctor"; bundle ]));
          (* ...and a missing one marks a bundle that never completed. *)
          Sys.remove manifest;
          let out = expect_clean_failure "missing manifest" (run_capture_err [ "doctor"; bundle ]) in
          check "names the incompleteness" true (contains ~needle:"manifest" out);
          ignore
            (expect_clean_failure "nonexistent bundle"
               (run_capture_err [ "doctor"; "/nonexistent-semimatch-bundle" ]))))

let suite =
  [
    Alcotest.test_case "gen/info/solve roundtrip" `Quick test_gen_info_solve_roundtrip;
    Alcotest.test_case "version" `Quick test_version;
    Alcotest.test_case "client/serve operator errors" `Quick test_client_without_server;
    Alcotest.test_case "loadgen + metrics against a live daemon" `Quick
      test_loadgen_and_metrics_e2e;
    Alcotest.test_case "missing instance file" `Quick test_missing_instance_file;
    Alcotest.test_case "corrupt instance file" `Quick test_corrupt_instance_file;
    Alcotest.test_case "unknown flag and command" `Quick test_unknown_flag;
    Alcotest.test_case "non-positive --jobs and --timeout" `Quick
      test_nonpositive_jobs_and_timeout;
    Alcotest.test_case "unwritable trace path" `Quick test_unwritable_trace;
    Alcotest.test_case "bad fault specs" `Quick test_bad_fault_spec;
    Alcotest.test_case "faulted solve and simulate" `Quick test_faulted_solve_and_simulate;
    Alcotest.test_case "compare lists all heuristics" `Quick test_compare_lists_all;
    Alcotest.test_case "exact on SINGLEPROC file" `Quick test_exact_on_singleproc;
    Alcotest.test_case "exact rejects MULTIPROC" `Quick test_exact_rejects_multiproc;
    Alcotest.test_case "--jobs above the domain limit" `Quick test_jobs_above_domain_limit;
    Alcotest.test_case "simulate" `Quick test_simulate;
    Alcotest.test_case "doctor validates and replays bundles" `Quick
      test_doctor_validates_and_replays;
  ]
