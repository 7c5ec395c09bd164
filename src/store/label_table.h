#ifndef PRIMELABEL_STORE_LABEL_TABLE_H_
#define PRIMELABEL_STORE_LABEL_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "xml/tree.h"

namespace primelabel {

class LoadedCatalog;

/// In-memory stand-in for the relational label table of Section 5.2.
///
/// The paper stores (element tag, label) rows in an RDBMS and translates
/// XPath into SQL whose predicates are the schemes' label tests (`mod` and
/// comparisons for interval/prime, a "check prefix" UDF for prefix
/// labels). This table reproduces the physical design: one row per element
/// node, a tag index for the initial selection, and the parent id column
/// that relational XML mappings keep for parent/sibling steps. Label
/// predicates themselves are evaluated through the LabelingScheme, so each
/// scheme pays its own per-row comparison cost.
class LabelTable {
 public:
  /// Builds one row per attached element node of `tree`, in document order.
  explicit LabelTable(const XmlTree& tree);

  /// Builds the same table from a loaded catalog's row metadata — no
  /// XmlTree needed. Rows are stored in preorder with parents by row
  /// index, so NodeIds here coincide with the ids a tree rebuilt from the
  /// same catalog would hand out; text rows fold into their parent's text
  /// column exactly as the tree walk concatenates direct text children.
  /// This is what lets an epoch view answer XPath without
  /// materializing the document.
  explicit LabelTable(const LoadedCatalog& catalog);

  /// Rows (node ids) whose tag equals `tag`, in document order. Returns an
  /// empty list for unknown tags.
  const std::vector<NodeId>& Rows(const std::string& tag) const;

  /// All element rows in document order.
  const std::vector<NodeId>& AllRows() const { return all_rows_; }

  /// The stored parent id of a row (kInvalidNodeId for the root row).
  NodeId ParentOf(NodeId id) const {
    return parents_[static_cast<size_t>(id)];
  }

  /// Value of the row's attribute `key`, or nullptr when absent. Backs the
  /// `[@key='value']` predicate; a relational XML mapping keeps attributes
  /// in a side table keyed the same way.
  const std::string* AttributeOf(NodeId id, const std::string& key) const;

  /// Concatenated direct character data of the element (its text value
  /// column). Backs the `[text()='value']` predicate; empty for elements
  /// without text children.
  const std::string* TextOf(NodeId id) const;

  std::size_t row_count() const { return all_rows_.size(); }

  /// Distinct tags in the table.
  std::vector<std::string> Tags() const;

 private:
  std::unordered_map<std::string, std::vector<NodeId>> by_tag_;
  std::vector<NodeId> all_rows_;
  std::vector<NodeId> parents_;
  /// (row, key) -> value for every attribute in the document.
  std::unordered_map<std::string, std::string> attributes_;
  /// row -> direct text content, for rows that have any.
  std::unordered_map<NodeId, std::string> text_;
  std::vector<NodeId> empty_;
};

}  // namespace primelabel

#endif  // PRIMELABEL_STORE_LABEL_TABLE_H_
