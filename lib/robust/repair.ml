type policy = Strict | Repair | Skip

let policy_name = function Strict -> "strict" | Repair -> "repair" | Skip -> "skip"

type action =
  | Dropped_malformed
  | Dropped_self_loop
  | Dropped_nonfinite
  | Dropped_negative_id
  | Dropped_out_of_range
  | Dropped_out_of_window
  | Clamped_to_window
  | Swapped_interval
  | Swapped_window
  | Merged_duplicate
  | Ignored_header
  | Widened_node_count

let action_name = function
  | Dropped_malformed -> "dropped-malformed"
  | Dropped_self_loop -> "dropped-self-loop"
  | Dropped_nonfinite -> "dropped-nonfinite"
  | Dropped_negative_id -> "dropped-negative-id"
  | Dropped_out_of_range -> "dropped-out-of-range"
  | Dropped_out_of_window -> "dropped-out-of-window"
  | Clamped_to_window -> "clamped-to-window"
  | Swapped_interval -> "swapped-interval"
  | Swapped_window -> "swapped-window"
  | Merged_duplicate -> "merged-duplicate"
  | Ignored_header -> "ignored-header"
  | Widened_node_count -> "widened-node-count"

let is_drop = function
  | Dropped_malformed | Dropped_self_loop | Dropped_nonfinite | Dropped_negative_id
  | Dropped_out_of_range | Dropped_out_of_window ->
    true
  | Clamped_to_window | Swapped_interval | Swapped_window | Merged_duplicate
  | Ignored_header | Widened_node_count ->
    false

type event = { line : int; action : action; detail : string }

type report = {
  policy : policy;
  total_lines : int;
  kept : int;
  events : event list;
}

let n_dropped r = List.length (List.filter (fun e -> is_drop e.action) r.events)
let n_repaired r = List.length r.events - n_dropped r
let is_clean r = r.events = []

let pp_event fmt e =
  Format.fprintf fmt "repair line=%d action=%s detail=%S" e.line (action_name e.action)
    e.detail

let pp fmt r =
  Format.fprintf fmt "repair-report policy=%s lines=%d kept=%d repaired=%d dropped=%d"
    (policy_name r.policy) r.total_lines r.kept (n_repaired r) (n_dropped r);
  List.iter (fun e -> Format.fprintf fmt "@\n%a" pp_event e) r.events
