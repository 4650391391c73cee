#include "analysis/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/units.hpp"

namespace esp::an {

Matrix density_grid(const std::vector<double>& per_rank) {
  const std::size_t n = per_rank.size();
  if (n == 0) return Matrix(1, 1);
  const auto cols =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  const std::size_t rows = (n + cols - 1) / cols;
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < n; ++i) m.at(i / cols, i % cols) = per_rank[i];
  return m;
}

Matrix dense_comm_matrix(const AppResults& app, CommWeight w) {
  const auto n = static_cast<std::size_t>(app.size);
  Matrix m(n, n);
  for (const auto& [key, cell] : app.comm) {
    const auto s = static_cast<std::size_t>(AppResults::comm_src(key));
    const auto d = static_cast<std::size_t>(AppResults::comm_dst(key));
    if (s >= n || d >= n) continue;
    switch (w) {
      case CommWeight::Hits: m.at(s, d) = static_cast<double>(cell.hits); break;
      case CommWeight::Bytes: m.at(s, d) = static_cast<double>(cell.bytes); break;
      case CommWeight::Time: m.at(s, d) = cell.time; break;
    }
  }
  return m;
}

namespace {

bool write_profile_csv(const std::string& path, const AppResults& app) {
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < kKindSlots; ++i) {
    const auto& ks = app.per_kind[i];
    if (ks.hits == 0) continue;
    rows.push_back({kind_slot_name(i), std::to_string(ks.hits),
                    std::to_string(ks.time), std::to_string(ks.bytes)});
  }
  return write_csv(path, {"call", "hits", "time_s", "bytes"}, rows);
}

void chapter(std::ofstream& md, const AppResults& app,
             const std::string& app_dir_rel) {
  md << "\n## Application: " << app.name << "\n\n"
     << "- processes: " << app.size << "\n"
     << "- events analysed: " << app.total_events << "\n"
     << "- last event at: " << format_time(app.last_event_time) << "\n\n";

  md << "### MPI interface profile\n\n"
     << "| call | hits | total time | total size |\n"
     << "|---|---:|---:|---:|\n";
  for (std::size_t i = 0; i < kKindSlots; ++i) {
    const auto& ks = app.per_kind[i];
    if (ks.hits == 0) continue;
    md << "| " << kind_slot_name(i) << " | " << ks.hits << " | "
       << format_time(ks.time) << " | " << format_bytes(static_cast<double>(ks.bytes))
       << " |\n";
  }

  std::uint64_t p2p_bytes = 0, p2p_hits = 0;
  for (const auto& [key, cell] : app.comm) {
    (void)key;
    p2p_bytes += cell.bytes;
    p2p_hits += cell.hits;
  }
  md << "\n### Topology\n\n"
     << "- point-to-point messages: " << p2p_hits << " ("
     << format_bytes(static_cast<double>(p2p_bytes)) << ")\n"
     << "- matrix: [" << app_dir_rel << "/comm_bytes.csv]("
     << app_dir_rel << "/comm_bytes.csv), heat map ["
     << app_dir_rel << "/comm_bytes.ppm](" << app_dir_rel
     << "/comm_bytes.ppm)\n"
     << "- graph: [" << app_dir_rel << "/topology.dot](" << app_dir_rel
     << "/topology.dot) (render with `dot -Tpng`)\n";

  if (!app.waits.pair_wait.empty()) {
    md << "\n### Wait states (late senders)\n\n"
       << "- total wait-state time: " << format_time(app.waits.total())
       << "\n\n| waiting rank | peer | blocked time |\n|---:|---:|---:|\n";
    // Top offending pairs, largest first.
    std::vector<std::pair<std::uint64_t, double>> pairs(
        app.waits.pair_wait.begin(), app.waits.pair_wait.end());
    std::sort(pairs.begin(), pairs.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    const std::size_t top = std::min<std::size_t>(pairs.size(), 10);
    for (std::size_t i = 0; i < top; ++i) {
      md << "| " << AppResults::comm_src(pairs[i].first) << " | "
         << AppResults::comm_dst(pairs[i].first) << " | "
         << format_time(pairs[i].second) << " |\n";
    }
  }

  if (app.temporal.bins() > 0) {
    md << "\n### Temporal map\n\n- " << app.temporal.per_rank.size()
       << " ranks x " << app.temporal.bins() << " bins of "
       << format_time(app.temporal.bin_seconds) << " — ["
       << app_dir_rel << "/temporal_map.ppm](" << app_dir_rel
       << "/temporal_map.ppm)\n";
  }

  md << "\n### Density maps\n\n";
  for (std::size_t m = 0; m < kDensityMetrics; ++m) {
    const auto& v = app.density[m];
    double lo = 0, hi = 0, sum = 0;
    if (!v.empty()) {
      lo = hi = v[0];
      for (double x : v) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        sum += x;
      }
    }
    if (sum == 0) continue;
    const char* name = density_metric_name(static_cast<DensityMetric>(m));
    md << "- **" << name << "**: min " << lo << ", max " << hi << " ["
       << app_dir_rel << "/density_" << name << ".ppm](" << app_dir_rel
       << "/density_" << name << ".ppm)\n";
  }

  if (app.telemetry.stream_blocks != 0) {
    md << "\n### Transport telemetry\n\n"
       << "- stream blocks delivered: " << app.telemetry.stream_blocks << "\n"
       << "- stream payload delivered: "
       << format_bytes(static_cast<double>(app.telemetry.stream_bytes))
       << "\n";
    if (app.telemetry.failover_joins != 0) {
      md << "- links adopted after analyzer failover: "
         << app.telemetry.failover_joins << "\n"
         << "- blocks replayed from resend windows: "
         << app.telemetry.blocks_replayed << "\n";
    }
    if (app.telemetry.planned_handoffs != 0) {
      md << "- links handed off by planned membership drains: "
         << app.telemetry.planned_handoffs << " (clean — no ledger charge)\n";
    }
  }

  const auto& dg = app.degrade;
  if (dg.packs_full + dg.packs_sampled + dg.packs_aggregated != 0) {
    md << "\n### Fidelity (degradation ladder)\n\n";
    if (dg.degraded()) {
      md << "**Parts of this chapter are statistical estimates**: overload "
            "stepped the instrumentation down the degradation ladder. "
            "Sampled windows extrapolate each kept event by its stride; "
            "aggregated windows reduce to per-window weighted averages "
            "(no per-event timing or topology).\n\n";
    }
    md << "- full-fidelity packs: " << dg.packs_full << "\n"
       << "- sampled packs: " << dg.packs_sampled << "\n"
       << "- aggregated packs: " << dg.packs_aggregated << "\n";
  }

  if (app.tenant.fabric) {
    const auto& t = app.tenant;
    md << "\n### Tenant\n\n"
       << "- admission: "
       << (t.admitted ? "admitted"
                      : (t.rejected ? "**REJECTED** (quota saturation)"
                                    : "undecided"))
       << "\n"
       << "- arrival: " << format_time(t.arrival) << "\n";
    if (t.admitted) {
      md << "- admitted at: " << format_time(t.t_admit) << "\n"
         << "- released at: " << format_time(t.t_release)
         << (t.released_by_death ? " (by crash)" : "") << "\n";
    }
    if (t.packs_shed != 0) {
      md << "- packs shed over quota: " << t.packs_shed << " ("
         << t.events_shed << " events)\n";
    }
    md << "- blackboard jobs charged: " << t.jobs_executed
       << " (failed: " << t.jobs_failed
       << ", quarantined KSs: " << t.ks_quarantined << ")\n";
    if (t.latency.count != 0) {
      md << "- event-to-flush latency: p50 "
         << format_time(t.latency.quantile(0.50)) << ", p99 "
         << format_time(t.latency.quantile(0.99)) << " ("
         << t.latency.count << " weighted events)\n";
    }
  }

  if (!app.loss.clean() || app.loss.blocks_retried != 0) {
    md << "\n### Data loss\n\n"
       << "This chapter is incomplete — the measurement infrastructure "
          "lost data for this application:\n\n";
    if (!app.loss.dead_ranks.empty()) {
      md << "- dead ranks:";
      for (int r : app.loss.dead_ranks) md << ' ' << r;
      md << '\n';
    }
    md << "- stream blocks lost: " << app.loss.blocks_lost << "\n"
       << "- stream blocks corrupted (CRC): " << app.loss.blocks_corrupted
       << "\n"
       << "- corrupt blocks retried/skipped: " << app.loss.blocks_retried
       << "\n"
       << "- events dropped (upper bound): "
       << app.loss.events_dropped_estimate << "\n";
  }
}

}  // namespace

bool write_report(const std::string& output_dir,
                  const std::vector<const AppResults*>& apps,
                  const SessionHealth* health) {
  if (!ensure_directory(output_dir)) return false;
  std::ofstream md(output_dir + "/report.md");
  if (!md) return false;
  md << "# esperf online profiling report\n\n"
     << "Generated by the distributed analysis engine; one chapter per "
        "instrumented application.\n";

  if (health != nullptr) {
    std::size_t lossy_apps = 0;
    for (const AppResults* app : apps)
      if (!app->loss.clean()) ++lossy_apps;
    md << "\n## Session health\n\n"
       << "- status: "
       << (health->degraded() || lossy_apps > 0 ? "**DEGRADED**" : "healthy")
       << "\n"
       << "- crashed ranks: " << health->dead_world_ranks.size();
    if (!health->dead_world_ranks.empty()) {
      md << " (world:";
      for (int r : health->dead_world_ranks) md << ' ' << r;
      md << ')';
    }
    md << "\n- analyzer ranks lost: " << health->dead_analyzer_ranks.size()
       << "\n"
       << "- blackboard jobs failed: " << health->jobs_failed << "\n"
       << "- knowledge sources quarantined: " << health->ks_quarantined
       << "\n"
       << "- applications with data loss: " << lossy_apps << " of "
       << apps.size() << "\n";
    if (health->tenants_admitted + health->tenants_rejected != 0) {
      md << "\n## Tenant fabric\n\n"
         << "- tenants admitted: " << health->tenants_admitted << "\n"
         << "- tenants rejected: " << health->tenants_rejected << "\n"
         << "- packs shed over quota: " << health->tenant_packs_shed << "\n";
    }
    if (health->membership_epochs > 1) {
      md << "\n## Membership\n\n"
         << "The analyzer partition resized under a planned elastic "
            "schedule; every transition below is part of the seeded plan, "
            "not a failure.\n\n"
         << "- membership epochs: " << health->membership_epochs << "\n"
         << "- members joined (warm): " << health->members_joined << "\n"
         << "- members left (drained): " << health->members_left << "\n"
         << "- planned drain handoffs: " << health->planned_handoffs << "\n"
         << "- crash failover handoffs: " << health->failover_joins << "\n"
         << "- join announcements received: "
         << health->join_announcements << "\n";
    }

    const auto& tel = health->telemetry;
    if (tel.jobs_executed != 0 || tel.blocks_read != 0) {
      // Only virtual-time-deterministic totals are printed here, so two
      // same-seed runs emit bit-identical reports. Scheduling-dependent
      // counters (job executions, batch shapes, empty polls) stay
      // in SessionTelemetry and the metrics.json export.
      md << "\n## Engine telemetry\n\n"
         << "Reduced over every surviving analyzer rank — deterministic "
            "transport totals; scheduling-dependent engine counters are "
            "exported via metrics instead of this report.\n\n"
         << "- stream blocks drained: " << tel.blocks_read << " ("
         << format_bytes(static_cast<double>(tel.bytes_read)) << ")\n";
    }
  }

  bool ok = true;
  for (const AppResults* app : apps) {
    const std::string dir = output_dir + "/" + app->name;
    ok = ensure_directory(dir) && ok;

    ok = write_profile_csv(dir + "/profile.csv", *app) && ok;

    const Matrix hits = dense_comm_matrix(*app, CommWeight::Hits);
    const Matrix bytes = dense_comm_matrix(*app, CommWeight::Bytes);
    const Matrix time = dense_comm_matrix(*app, CommWeight::Time);
    ok = write_csv(dir + "/comm_hits.csv", hits) && ok;
    ok = write_csv(dir + "/comm_bytes.csv", bytes) && ok;
    ok = write_csv(dir + "/comm_time.csv", time) && ok;
    const int scale = app->size <= 64 ? 8 : 1;
    ok = write_ppm_heatmap(dir + "/comm_bytes.ppm", bytes, true, scale) && ok;
    ok = write_dot_graph(dir + "/topology.dot", bytes, app->name) && ok;

    for (std::size_t m = 0; m < kDensityMetrics; ++m) {
      const auto& v = app->density[m];
      double sum = 0;
      for (double x : v) sum += x;
      if (sum == 0) continue;
      const char* name = density_metric_name(static_cast<DensityMetric>(m));
      const Matrix grid = density_grid(v);
      const int gscale = app->size <= 4096 ? 4 : 1;
      ok = write_csv(dir + "/density_" + name + ".csv", grid) && ok;
      ok = write_ppm_heatmap(dir + "/density_" + name + ".ppm", grid, false,
                             gscale) &&
           ok;
    }
    if (app->temporal.bins() > 0) {
      Matrix tm(app->temporal.per_rank.size(), app->temporal.bins());
      for (std::size_t row = 0; row < app->temporal.per_rank.size(); ++row)
        for (std::size_t b = 0; b < app->temporal.per_rank[row].size(); ++b)
          tm.at(row, b) = app->temporal.per_rank[row][b];
      ok = write_csv(dir + "/temporal_map.csv", tm) && ok;
      ok = write_ppm_heatmap(dir + "/temporal_map.ppm", tm, false,
                             app->size <= 64 ? 4 : 1) &&
           ok;
    }
    if (!app->waits.late_time_per_rank.empty() && app->waits.total() > 0) {
      const Matrix wg = density_grid(app->waits.late_time_per_rank);
      ok = write_csv(dir + "/wait_states.csv", wg) && ok;
      ok = write_ppm_heatmap(dir + "/wait_states.ppm", wg, false,
                             app->size <= 4096 ? 4 : 1) &&
           ok;
    }
    chapter(md, *app, app->name);
  }
  return ok && static_cast<bool>(md);
}

}  // namespace esp::an
