(* Frozen reference for the trace store's start order: [Trace]'s
   [in_start_order] as it stood before equal-start runs were sorted
   where they lie, kept verbatim except that it reads four exact-length
   arrays instead of the (abstract) [Trace.Builder.t], and so returns
   copies where the original took the buffer's arrays over. Every input
   goes through one heap sort ([Array.sort]) of an index permutation,
   unless it is already in order with bit-identical ties.
   [test_temporal.ml] pins [Trace.of_builder_result]'s arrays to it, bit
   for bit. Do not "fix" it: a change here moves the contract. *)

let in_start_order (ba : int array) (bb : int array) (bbeg : float array) (bend : float array) =
  let m = Array.length ba in
  let cmp i j =
    let c = Float.compare bbeg.(i) bbeg.(j) in
    if c <> 0 then c
    else begin
      let c = Float.compare bend.(i) bend.(j) in
      if c <> 0 then c
      else begin
        let c = Int.compare ba.(i) ba.(j) in
        if c <> 0 then c else Int.compare bb.(i) bb.(j)
      end
    end
  in
  let rec ordered i =
    i >= m
    ||
    let c = cmp (i - 1) i in
    (c < 0
    || c = 0
       && Float.sign_bit bbeg.(i - 1) = Float.sign_bit bbeg.(i)
       && Float.sign_bit bend.(i - 1) = Float.sign_bit bend.(i))
    && ordered (i + 1)
  in
  if ordered 1 then (Array.copy ba, Array.copy bb, Array.copy bbeg, Array.copy bend)
  else begin
    let perm = Array.init m Fun.id in
    Array.sort cmp perm;
    let ints src =
      let dst = Array.make m 0 in
      for k = 0 to m - 1 do
        dst.(k) <- src.(perm.(k))
      done;
      dst
    and floats src =
      let dst = Array.make m 0. in
      for k = 0 to m - 1 do
        dst.(k) <- src.(perm.(k))
      done;
      dst
    in
    (ints ba, ints bb, floats bbeg, floats bend)
  end
