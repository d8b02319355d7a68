"""dpcharge: exact DP-coloring solvers and a rational discharging engine
for embedded plane graphs."""
