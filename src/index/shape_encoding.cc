#include "index/shape_encoding.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/random.h"

namespace tman::index {

double JaccardSimilarity(uint32_t a, uint32_t b) {
  const int inter = std::popcount(a & b);
  const int uni = std::popcount(a | b);
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

namespace {

// Sum of similarities along the n codes at `order`.
double Fitness(const std::vector<uint32_t>& shapes, const uint32_t* order,
               size_t n) {
  double total = 0;
  for (size_t i = 0; i + 1 < n; i++) {
    total += JaccardSimilarity(shapes[order[i]], shapes[order[i + 1]]);
  }
  return total;
}

}  // namespace

double CumulativeSimilarity(const std::vector<uint32_t>& shapes,
                            const std::vector<uint32_t>& order) {
  return Fitness(shapes, order.data(), order.size());
}

namespace {

std::vector<uint32_t> GreedyOrder(const std::vector<uint32_t>& shapes) {
  const size_t n = shapes.size();
  std::vector<uint32_t> order;
  order.reserve(n);
  std::vector<bool> visited(n, false);
  uint32_t current = 0;
  order.push_back(current);
  visited[current] = true;
  for (size_t step = 1; step < n; step++) {
    double best_sim = -1;
    uint32_t best = 0;
    for (uint32_t j = 0; j < n; j++) {
      if (visited[j]) continue;
      const double sim = JaccardSimilarity(shapes[current], shapes[j]);
      if (sim > best_sim) {
        best_sim = sim;
        best = j;
      }
    }
    order.push_back(best);
    visited[best] = true;
    current = best;
  }
  return order;
}

// Order crossover (OX): copies a slice of parent a, fills the rest in
// parent b's order. `child` and `used` hold n entries and are overwritten.
void OrderCrossover(const uint32_t* a, const uint32_t* b, size_t n,
                    Random* rnd, uint32_t* child, std::vector<bool>* used) {
  size_t lo = rnd->Uniform(n);
  size_t hi = rnd->Uniform(n);
  if (lo > hi) std::swap(lo, hi);
  std::fill(child, child + n, UINT32_MAX);
  used->assign(n, false);
  for (size_t i = lo; i <= hi; i++) {
    child[i] = a[i];
    (*used)[a[i]] = true;
  }
  size_t pos = 0;
  for (size_t i = 0; i < n; i++) {
    if ((*used)[b[i]]) continue;
    while (child[pos] != UINT32_MAX) pos++;
    child[pos] = b[i];
  }
}

// The population is a flat array of `population` individuals of n codes
// each, scored once when it is formed. The random draws keep a fixed order
// (shape codes written by one build must be reproduced by every other).
std::vector<uint32_t> GeneticOrder(const std::vector<uint32_t>& shapes,
                                   const GeneticParams& params) {
  const size_t n = shapes.size();
  const size_t size = static_cast<size_t>(std::max(params.population, 1));
  Random rnd(params.seed ^ (n * 0x9e3779b9ULL));

  // Seed the population with the greedy solution plus random permutations.
  std::vector<uint32_t> population(size * n);
  const std::vector<uint32_t> greedy = GreedyOrder(shapes);
  std::copy(greedy.begin(), greedy.end(), population.begin());
  for (size_t p = 1; p < size; p++) {
    uint32_t* perm = &population[p * n];
    std::iota(perm, perm + n, 0);
    for (size_t i = n; i > 1; i--) {
      std::swap(perm[i - 1], perm[rnd.Uniform(i)]);
    }
  }
  std::vector<double> fitness(size);
  for (size_t p = 0; p < size; p++) {
    fitness[p] = Fitness(shapes, &population[p * n], n);
  }

  std::vector<uint32_t> best = greedy;
  double best_fitness = fitness[0];

  std::vector<uint32_t> next(size * n);
  std::vector<double> next_fitness(size);
  std::vector<bool> used;
  // Binary tournament: the fitter of two random individuals.
  auto tournament = [&]() -> const uint32_t* {
    const size_t x = rnd.Uniform(size);
    const size_t y = rnd.Uniform(size);
    return &population[(fitness[x] >= fitness[y] ? x : y) * n];
  };
  for (int gen = 0; gen < params.generations; gen++) {
    std::copy(best.begin(), best.end(), next.begin());  // elitism
    next_fitness[0] = best_fitness;
    for (size_t p = 1; p < size; p++) {
      // The second parent is drawn first.
      const uint32_t* b = tournament();
      const uint32_t* a = tournament();
      uint32_t* child = &next[p * n];
      OrderCrossover(a, b, n, &rnd, child, &used);
      if (rnd.Bernoulli(params.mutation_rate) && n >= 2) {
        const size_t i = rnd.Uniform(n);
        const size_t j = rnd.Uniform(n);
        std::swap(child[i], child[j]);
      }
      next_fitness[p] = Fitness(shapes, child, n);
    }
    population.swap(next);
    fitness.swap(next_fitness);
    for (size_t p = 0; p < size; p++) {
      if (fitness[p] > best_fitness) {
        best_fitness = fitness[p];
        best.assign(&population[p * n], &population[p * n] + n);
      }
    }
  }
  return best;
}

}  // namespace

std::vector<uint32_t> OptimizeShapeOrder(const std::vector<uint32_t>& shapes,
                                         ShapeOrderMethod method,
                                         const GeneticParams& params) {
  const size_t n = shapes.size();
  if (n == 0) return {};
  if (n == 1) return {0};
  switch (method) {
    case ShapeOrderMethod::kBitmap: {
      // Raw order: ascending bitmap value.
      std::vector<uint32_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&shapes](uint32_t a, uint32_t b) {
        return shapes[a] < shapes[b];
      });
      return order;
    }
    case ShapeOrderMethod::kGreedy:
      return GreedyOrder(shapes);
    case ShapeOrderMethod::kGenetic:
      return GeneticOrder(shapes, params);
  }
  return {};
}

std::vector<uint32_t> SpreadCodes(size_t n, uint64_t code_space) {
  std::vector<uint32_t> codes(n);
  for (size_t p = 0; p < n; p++) {
    codes[p] = static_cast<uint32_t>(((2 * p + 1) * code_space - n) / (2 * n));
  }
  return codes;
}

uint32_t PlaceShape(const ShapeList& shapes, uint32_t bits,
                    uint64_t code_space) {
  // Position k puts the shape between shapes[k - 1] and shapes[k]; an end
  // position gains one neighbour and breaks no link.
  const size_t m = shapes.size();
  size_t best = 0;
  double best_gain = -2;
  for (size_t k = 0; k <= m; k++) {
    double gain = 0;
    if (k > 0) gain += JaccardSimilarity(shapes[k - 1].first, bits);
    if (k < m) gain += JaccardSimilarity(bits, shapes[k].first);
    if (k > 0 && k < m) {
      gain -= JaccardSimilarity(shapes[k - 1].first, shapes[k].first);
    }
    if (gain > best_gain) {
      best_gain = gain;
      best = k;
    }
  }
  // The free codes between the two neighbours are [lo, hi].
  const int64_t lo = best > 0 ? int64_t{shapes[best - 1].second} + 1 : 0;
  const int64_t hi = best < m ? int64_t{shapes[best].second} - 1
                              : static_cast<int64_t>(code_space) - 1;
  if (lo <= hi) return static_cast<uint32_t>(lo + (hi - lo) / 2);
  // No code between them: walk outward over the used codes on each side.
  int64_t below = lo - 1;
  for (size_t i = best; i > 0 && shapes[i - 1].second == below; i--) below--;
  int64_t above = hi + 1;
  for (size_t j = best; j < m && shapes[j].second == above; j++) above++;
  const bool use_below =
      below >= 0 && (above >= static_cast<int64_t>(code_space) ||
                     lo - below <= above - hi);
  return static_cast<uint32_t>(use_below ? below : above);
}

}  // namespace tman::index
