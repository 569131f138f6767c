type t = { ld : float; ea : float }

let make ~ld ~ea =
  if Float.is_nan ld || Float.is_nan ea then invalid_arg "Ld_ea.make: nan";
  { ld; ea }

let identity = { ld = infinity; ea = neg_infinity }
let dominates p q = p.ld >= q.ld && p.ea <= q.ea

let can_concat p q = p.ea <= q.ld

let concat p q =
  if can_concat p q then Some { ld = Float.min p.ld q.ld; ea = Float.max p.ea q.ea }
  else None

let delivery p t = if t <= p.ld then Float.max t p.ea else infinity

let equal p q = p.ld = q.ld && p.ea = q.ea

let compare p q =
  let by_ld = Float.compare p.ld q.ld in
  if by_ld <> 0 then by_ld else Float.compare p.ea q.ea

let pp fmt p = Format.fprintf fmt "(ld=%g, ea=%g)" p.ld p.ea
