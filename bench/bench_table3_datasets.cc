// Reproduces Table III: statistics of the fourteen benchmark datasets.
// Ours are synthetic stand-ins (datasets/registry.h), so absolute sizes are
// ~100x smaller than the paper's; the |E|/|V| and tmax/|E| regimes match.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace tkc;
  using namespace tkc::bench;
  BenchConfig config = ParseBenchConfig(argc, argv);

  std::printf("=== Table III: datasets (synthetic stand-ins, scale %.2f) ===\n",
              config.scale);
  TextTable table;
  table.SetHeader({"Name", "|V|", "|E|", "tmax", "kmax", "avg_deg",
                   "edges/timestamp"});
  auto rows = CollectDatasetRows(
      SelectedDatasets(config),
      [&](const std::string& name) -> std::vector<TableRow> {
        auto prepared = Prepare(name, config.scale);
        if (!prepared.ok()) {
          std::fprintf(stderr, "%s: %s\n", name.c_str(),
                       prepared.status().ToString().c_str());
          return {};
        }
        const GraphStats& s = prepared->stats;
        return {{name, TextTable::Cell(s.num_vertices),
                 TextTable::Cell(s.num_edges),
                 TextTable::Cell(s.num_timestamps),
                 TextTable::Cell(uint64_t{s.kmax}),
                 TextTable::Cell(s.avg_degree, 2),
                 TextTable::Cell(static_cast<double>(s.num_edges) /
                                     static_cast<double>(s.num_timestamps),
                                 1)}};
      },
      config.parallel_datasets);
  for (auto& row : rows) table.AddRow(std::move(row));
  table.Print();
  return 0;
}
