#ifndef TMAN_TESTS_MAP_CATALOG_H_
#define TMAN_TESTS_MAP_CATALOG_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "index/tshape_index.h"

namespace tman::index {

// A shape catalog over a plain map of element code -> shapes, for index
// tests that run without TMan's index cache. Shapes are handed out sorted
// by final code, as ShapeCatalogView::Shapes promises.
class MapCatalog final : public ShapeCatalogView {
 public:
  explicit MapCatalog(const std::map<uint64_t, ShapeList>& elements) {
    for (const auto& [code, shapes] : elements) {
      ShapeList sorted = shapes;
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) { return a.second < b.second; });
      elements_.emplace(code, std::make_shared<const ShapeList>(std::move(sorted)));
    }
  }

  uint64_t NextOccupied(uint64_t quad_code) const override {
    auto it = elements_.lower_bound(quad_code);
    return it == elements_.end() ? UINT64_MAX : it->first;
  }

  std::shared_ptr<const ShapeList> Shapes(uint64_t quad_code) const override {
    return elements_.at(quad_code);
  }

 private:
  std::map<uint64_t, std::shared_ptr<const ShapeList>> elements_;
};

}  // namespace tman::index

#endif  // TMAN_TESTS_MAP_CATALOG_H_
