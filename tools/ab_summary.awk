# Summarises tools/ab.sh's `P|C <workload> <seed> <result object> [cpu object]`
# lines: per workload × end-to-end metric, each side's median [q1, q3]
# (linear interpolation), the median's relative change, and in how many
# pairs the change read better (ties count for neither); plus failed
# operations and runs whose gates did not all pass; then, when the lines
# carry them, each side's median [q1, q3] of the runs' user and sys CPU
# seconds and minor page faults — reported, never gated. POSIX awk (mawk
# is fine).
BEGIN { split("setup_s step_s_p50 steps_per_s peak_rss_mb", M, " "); split("cpu_user_s cpu_sys_s minor_faults", R, " ") }
function num(key,    s) { s = $0; sub(".*\"" key "\":(\\{\"value\":)?", "", s); return s + 0 }
function q(w, m, side, p,    n, i, j, t, a, x) {
  n = 0
  for (i = 1; i <= pairs[w]; i++) a[++n] = v[w, m, side, seeds[w, i]]
  for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
  x = 1 + (n - 1) * p; i = int(x)
  return i >= n ? a[n] : a[i] + (x - i) * (a[i + 1] - a[i])
}
function sides(w, m) { return sprintf("P %.6g [%.6g, %.6g]  C %.6g [%.6g, %.6g]", q(w, m, "P", .5), q(w, m, "P", .25), q(w, m, "P", .75), q(w, m, "C", .5), q(w, m, "C", .25), q(w, m, "C", .75)) }
$1 == "P" || $1 == "C" {
  if (!(($2, $3) in seen)) { seen[$2, $3] = 1; seeds[$2, ++pairs[$2]] = $3; if (pairs[$2] == 1) order[++nw] = $2 }
  for (k = 1; k <= 4; k++) v[$2, M[k], $1, $3] = num(M[k])
  if ($0 ~ /"cpu_user_s":/) { cpu[$2] = 1; for (k = 1; k <= 3; k++) v[$2, R[k], $1, $3] = ($0 ~ "\"" R[k] "\":") ? num(R[k]) : 0 }
  failed[$2, $1] += num("failed"); bad[$2, $1] += ($0 !~ /"correct":true/)
}
END {
  for (wi = 1; wi <= nw; wi++) { w = order[wi]
    for (k = 1; k <= 4; k++) { m = M[k]; better = 0
      for (i = 1; i <= pairs[w]; i++) { s = seeds[w, i]; d = v[w, m, "C", s] - v[w, m, "P", s]; better += (m == "steps_per_s" ? d > 0 : d < 0) }
      printf "%-11s %-12s %s  %+.1f%%  better %d/%d\n", w, m, sides(w, m), 100 * (q(w, m, "C", .5) / q(w, m, "P", .5) - 1), better, pairs[w]
    }
    printf "%-11s failed P %d C %d, runs with a failed gate P %d C %d\n", w, failed[w, "P"], failed[w, "C"], bad[w, "P"], bad[w, "C"]
    if (cpu[w]) for (k = 1; k <= 3; k++) printf "%-11s %-12s %s  (reported)\n", w, R[k], sides(w, R[k])
  }
}
