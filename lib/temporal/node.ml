type t = int

let compare = Int.compare
let equal = Int.equal
let pp fmt n = Format.fprintf fmt "n%d" n
