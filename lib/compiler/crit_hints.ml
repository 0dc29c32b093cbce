open Clusteer_ddg

(* The slack computation itself lives in Clusteer_ddg.Slack so the
   checker's PL005 pass verifies against the very function that
   produced the hints, not a reimplementation that could drift. *)
let compute ~program ~likely ~region_uops ~slack_threshold =
  Slack.hints ~program ~likely ~region_uops ~slack_threshold
