(* The omn_parallel pool: determinism (results in input order
   regardless of domain count), exception propagation and pool
   reuse. *)

module Pool = Omn_parallel.Pool

let map_matches_sequential () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check int) "domains" 4 (Pool.domains pool);
      (* Uneven per-item cost exercises the work-stealing order. *)
      let xs = Array.init 500 (fun i -> i) in
      let f x =
        let acc = ref 0 in
        for j = 0 to (x mod 17) * 100 do
          acc := !acc + j
        done;
        (x * x) + (!acc * 0) + x
      in
      let expected = Array.map f xs in
      Alcotest.(check (array int)) "map = Array.map" expected (Pool.map pool f xs);
      (* A pool is reusable: repeated maps on the same workers agree. *)
      for _ = 1 to 5 do
        Alcotest.(check (array int)) "reused pool" expected (Pool.map pool f xs)
      done;
      Alcotest.(check (array int)) "empty input" [||] (Pool.map pool f [||]);
      Alcotest.(check (array int)) "singleton" [| f 3 |] (Pool.map pool f [| 3 |]))

let exceptions_propagate () =
  Pool.with_pool ~domains:3 (fun pool ->
      (match Pool.map pool (fun x -> if x = 57 then failwith "boom" else x) (Array.init 100 Fun.id) with
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
      | _ -> Alcotest.fail "exception in worker not re-raised on caller");
      (* The pool survives a failed map. *)
      Alcotest.(check (array int)) "pool alive after failure" [| 2; 3 |]
        (Pool.map pool succ [| 1; 2 |]))

let shutdown_idempotent () =
  let pool = Pool.create ~domains:3 () in
  Alcotest.(check (array int)) "map before shutdown" [| 2; 3; 4 |]
    (Pool.map pool succ [| 1; 2; 3 |]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (match Pool.create ~domains:0 () with
  | exception Invalid_argument _ -> ()
  | p ->
    Pool.shutdown p;
    Alcotest.fail "domains = 0 accepted")

(* Regression: mapping on a shut-down pool used to enqueue jobs no
   worker would ever take and hang; now it raises immediately. *)
let map_after_shutdown_raises () =
  let pool = Pool.create ~domains:3 () in
  Pool.shutdown pool;
  match Pool.map pool succ [| 1; 2; 3 |] with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "message names shutdown" true
      (String.length msg > 0 && Util.contains_substring msg "shut down")
  | _ -> Alcotest.fail "map on a shut-down pool did not raise"

(* Regression: a nested map on the same pool deadlocked once every
   worker was busy; now it is detected from both the caller domain and
   the worker domains. Nesting on a different pool stays legal. *)
let nested_map_detected () =
  Pool.with_pool ~domains:2 (fun pool ->
      let saw = Atomic.make 0 in
      let f _ =
        match Pool.map pool succ [| 1; 2; 3 |] with
        | exception Invalid_argument _ ->
          Atomic.incr saw;
          0
        | _ -> 1
      in
      let results = Pool.map pool f (Array.init 8 Fun.id) in
      Alcotest.(check (array int)) "every nested map rejected" (Array.make 8 0) results;
      Alcotest.(check int) "all sites raised" 8 (Atomic.get saw);
      (* the pool is still usable afterwards *)
      Alcotest.(check (array int)) "pool alive" [| 2; 3 |] (Pool.map pool succ [| 1; 2 |]);
      (* nesting on a different pool is fine *)
      Pool.with_pool ~domains:2 (fun inner ->
          let g x = Array.fold_left ( + ) 0 (Pool.map inner (fun y -> x + y) [| 1; 2; 3 |]) in
          Alcotest.(check (array int)) "different pool allowed" [| 6; 9 |]
            (Pool.map pool g [| 0; 1 |])))

let run_dispatch () =
  let xs = Array.init 50 (fun i -> i) in
  let f x = (3 * x) + 1 in
  let expected = Array.map f xs in
  Alcotest.(check (array int)) "run sequential" expected (Pool.run f xs);
  Alcotest.(check (array int)) "run ~domains:2" expected (Pool.run ~domains:2 f xs);
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check (array int)) "run ~pool" expected (Pool.run ~pool f xs))

(* [feed] hands every result to its callback exactly once, with its
   index, never two calls at once, from a pool, a temporary pool or the
   caller alone; an exception of the callback reaches the caller. *)
let feed_serialized () =
  let xs = Array.init 300 Fun.id in
  let f x =
    let acc = ref 0 in
    for j = 0 to (x mod 13) * 200 do
      acc := !acc + j
    done;
    x + (!acc * 0)
  in
  let check label feed =
    let seen = Array.make (Array.length xs) 0 and inside = Atomic.make 0 in
    let overlaps = Atomic.make 0 in
    feed (fun i v ->
        if Atomic.fetch_and_add inside 1 > 0 then Atomic.incr overlaps;
        if v = f xs.(i) then seen.(i) <- seen.(i) + 1;
        Atomic.decr inside);
    Alcotest.(check (array int)) (label ^ ": each result once") (Array.make (Array.length xs) 1) seen;
    Alcotest.(check int) (label ^ ": no overlapping calls") 0 (Atomic.get overlaps)
  in
  check "caller alone" (Pool.feed f xs);
  check "temporary pool" (Pool.feed ~domains:3 f xs);
  Pool.with_pool ~domains:4 (fun pool ->
      check "pool" (Pool.feed ~pool f xs);
      match Pool.feed ~pool f xs (fun i _ -> if i = 7 then failwith "stop") with
      | exception Failure msg -> Alcotest.(check string) "callback exception" "stop" msg
      | () -> Alcotest.fail "callback exception not re-raised")

let spec_parsing () =
  Alcotest.(check bool) "auto" true (Pool.spec_of_string "auto" = Some Pool.Auto);
  Alcotest.(check bool) "4" true (Pool.spec_of_string "4" = Some (Pool.Fixed 4));
  Alcotest.(check bool) "0 rejected" true (Pool.spec_of_string "0" = None);
  Alcotest.(check bool) "-2 rejected" true (Pool.spec_of_string "-2" = None);
  Alcotest.(check bool) "garbage rejected" true (Pool.spec_of_string "fast" = None);
  Alcotest.(check int) "resolve fixed" 3 (Pool.resolve (Pool.Fixed 3));
  Alcotest.(check bool) "resolve auto >= 1" true (Pool.resolve Pool.Auto >= 1);
  Alcotest.(check string) "to_string auto" "auto" (Pool.spec_to_string Pool.Auto);
  Alcotest.(check string) "to_string fixed" "7" (Pool.spec_to_string (Pool.Fixed 7));
  match Pool.resolve (Pool.Fixed 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Fixed 0 resolved"

let suite =
  [
    Alcotest.test_case "map = Array.map, order kept, pool reusable" `Quick map_matches_sequential;
    Alcotest.test_case "worker exceptions re-raised on caller" `Quick exceptions_propagate;
    Alcotest.test_case "shutdown idempotent; bad sizes rejected" `Quick shutdown_idempotent;
    Alcotest.test_case "map after shutdown raises" `Quick map_after_shutdown_raises;
    Alcotest.test_case "nested map on same pool detected" `Quick nested_map_detected;
    Alcotest.test_case "run dispatches on pool/domains" `Quick run_dispatch;
    Alcotest.test_case "--domains spec parsing" `Quick spec_parsing;
    Alcotest.test_case "feed: each result once, calls serialized" `Quick feed_serialized;
  ]
