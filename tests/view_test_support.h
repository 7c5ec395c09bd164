// Helpers shared by the tests that check snapshot views against a tree
// walk: a Vfs that records which files a store maps, and the parent-chain
// ancestry ground truth.
#ifndef PRIMELABEL_TESTS_VIEW_TEST_SUPPORT_H_
#define PRIMELABEL_TESTS_VIEW_TEST_SUPPORT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "durability/vfs.h"
#include "xml/tree.h"

namespace primelabel {

/// Records the files a store maps: a sealed point is served from its
/// mapped snapshot, a journaled point from an image built in memory.
class MapCountingVfs : public FaultInjectingVfs {
 public:
  MapCountingVfs() : FaultInjectingVfs(DefaultVfs()) {}
  Result<std::unique_ptr<MappedRegion>> MapReadOnly(
      const std::string& path) override {
    mapped_.push_back(path);
    return DefaultVfs().MapReadOnly(path);
  }
  /// The paths mapped since the last call.
  std::vector<std::string> TakeMapped() { return std::exchange(mapped_, {}); }

 private:
  std::vector<std::string> mapped_;
};

/// True when `ancestor` is on the parent chain of `node` in `tree`.
inline bool OnParentChain(const XmlTree& tree, NodeId ancestor, NodeId node) {
  for (NodeId p = tree.parent(node); p != kInvalidNodeId; p = tree.parent(p)) {
    if (p == ancestor) return true;
  }
  return false;
}

}  // namespace primelabel

#endif  // PRIMELABEL_TESTS_VIEW_TEST_SUPPORT_H_
