// Retrieval-at-scale bench: the IVF approximate index against exhaustive
// search on a 10k-analogue embedding set. Reports recall@10 and query time
// per probe count — the accuracy/latency dial a production deployment of
// the paper's retrieval system would tune. (Built over the synthetic image
// features directly; index behaviour only depends on the vector geometry.)

#include <cstdio>

#include <iostream>

#include "bench_common.h"
#include "index/ivf_index.h"
#include "tensor/ops.h"
#include "util/stopwatch.h"

namespace adamine {
namespace {

int Run() {
  data::GeneratorConfig config;
  config.num_recipes = 8000;
  config.num_classes = 192;
  config.seed = 42;
  auto generator = data::RecipeGenerator::Create(config);
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }
  data::Dataset dataset = generator->Generate();
  std::printf("== ANN retrieval: IVF index vs exhaustive search ==\n");
  std::printf("(%lld items of dim %lld)\n",
              static_cast<long long>(dataset.size()),
              static_cast<long long>(dataset.image_dim));

  Tensor items({dataset.size(), dataset.image_dim});
  for (int64_t i = 0; i < dataset.size(); ++i) {
    const Tensor& img = dataset.recipes[static_cast<size_t>(i)].image;
    std::copy(img.data(), img.data() + dataset.image_dim,
              items.data() + i * dataset.image_dim);
  }
  items = L2NormalizeRows(items);
  Tensor queries = SliceRows(items, 0, 100);

  TablePrinter table({"probes (of 32 lists)", "recall@10", "ms/query",
                      "speedup vs exact"});
  // k-means does not read num_probes, so one index serves every setting.
  index::IvfConfig ivf_config;
  ivf_config.num_lists = 32;
  ivf_config.seed = 9;
  auto index = index::IvfIndex::Build(items.Clone(), ivf_config);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  double exact_ms = 0.0;
  for (int64_t probes : {32, 8, 4, 2, 1}) {
    const double recall = index->RecallAtK(queries, 10, probes);
    Stopwatch watch;
    for (int64_t i = 0; i < queries.rows(); ++i) {
      auto top = index->Search(SliceRows(queries, i, i + 1), 10, probes);
      if (top[0].empty()) std::printf("unexpected empty result\n");
    }
    const double ms = watch.ElapsedMillis() / queries.rows();
    if (probes == 32) exact_ms = ms;
    table.AddRow({std::to_string(probes), TablePrinter::Num(recall, 3),
                  TablePrinter::Num(ms, 3),
                  TablePrinter::Num(exact_ms / ms, 2) + "x"});
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace adamine

int main() { return adamine::Run(); }
