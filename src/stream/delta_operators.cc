#include "stream/delta_operators.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "activity/agg_accumulator.h"
#include "common/macros.h"
#include "engine/executor.h"
#include "records/record_io.h"

namespace etlopt {

namespace {

using Key = std::vector<Value>;

Key ExtractKey(const Record& row, const std::vector<size_t>& idx) {
  Key key;
  key.reserve(idx.size());
  for (size_t i : idx) key.push_back(row.value(i));
  return key;
}

StatusOr<std::vector<size_t>> ResolveAttrs(
    const Schema& schema, const std::vector<std::string>& attrs) {
  std::vector<size_t> idx;
  idx.reserve(attrs.size());
  for (const auto& a : attrs) {
    auto i = schema.IndexOf(a);
    if (!i.has_value()) return Status::Internal("stream: missing attr " + a);
    idx.push_back(*i);
  }
  return idx;
}

constexpr const char* kMisfitRow =
    "stream checkpoint: restored row does not fit its schema";

StatusOr<Key> ReadKey(WireReader& reader, size_t arity) {
  ETLOPT_ASSIGN_OR_RETURN(Key key, ReadValues(reader));
  if (key.size() != arity) return Status::InvalidArgument(kMisfitRow);
  return key;
}

// Committed values plus the absolute values the current batch staged,
// each copied from its committed value on first touch.
template <typename K, typename V>
struct Overlay {
  std::map<K, V> committed, staged;

  V& Touch(const K& k, const V& fresh) {
    auto it = staged.find(k);
    if (it != staged.end()) return it->second;
    auto base = committed.find(k);
    return staged.emplace(k, base != committed.end() ? base->second : fresh)
        .first->second;
  }

  V Current(const K& k) const {
    for (const auto* values : {&staged, &committed}) {
      auto it = values->find(k);
      if (it != values->end()) return it->second;
    }
    return V{};
  }

  void Commit() {
    for (auto& [k, v] : staged) committed[k] = std::move(v);
    staged.clear();
  }
};

struct PrimaryKeyDelta final : DeltaOperator {
  std::vector<size_t> key_idx;
  std::set<Key> seen, staged;

  uint8_t tag() const override { return 1; }
  bool refresh() const override { return false; }

  StatusOr<std::vector<Record>> Apply(
      const std::vector<std::vector<Record>>& inputs) override {
    std::vector<Record> out;
    for (const Record& r : inputs[0]) {
      Key key = ExtractKey(r, key_idx);
      if (seen.count(key) == 0 && staged.insert(std::move(key)).second) {
        out.push_back(r);
      }
    }
    return out;
  }

  void Commit() override {
    seen.merge(staged);
    staged.clear();
  }
  void Discard() override { staged.clear(); }

  void Save(std::string& out) const override {
    PutU64(out, seen.size());
    for (const Key& key : seen) PutValues(out, key);
  }

  Status Restore(WireReader& reader) override {
    ETLOPT_ASSIGN_OR_RETURN(uint64_t n, reader.U64());
    for (uint64_t i = 0; i < n; ++i) {
      ETLOPT_ASSIGN_OR_RETURN(Key key, ReadKey(reader, key_idx.size()));
      staged.insert(std::move(key));
    }
    return Status::OK();
  }
};

// One join input: its committed row history with a per-key index, and
// the rows the current batch staged. Null keys never join and are never
// stored.
struct JoinSide {
  std::vector<size_t> key_idx;
  size_t arity = 0;
  std::vector<Record> rows, staged;
  std::map<Key, std::vector<size_t>> index;
  std::vector<Key> staged_keys;

  bool Stage(const Record& row) {
    Key key = ExtractKey(row, key_idx);
    if (std::any_of(key.begin(), key.end(),
                    [](const Value& v) { return v.is_null(); })) {
      return false;
    }
    staged.push_back(row);
    staged_keys.push_back(std::move(key));
    return true;
  }

  void Commit() {
    for (size_t i = 0; i < staged.size(); ++i) {
      index[std::move(staged_keys[i])].push_back(rows.size());
      rows.push_back(std::move(staged[i]));
    }
    Discard();
  }

  void Discard() {
    staged.clear();
    staged_keys.clear();
  }

  Status Restore(WireReader& reader) {
    ETLOPT_ASSIGN_OR_RETURN(staged, ReadStateRows(reader, arity));
    for (const Record& row : staged) {
      staged_keys.push_back(ExtractKey(row, key_idx));
    }
    return Status::OK();
  }
};

struct JoinDelta final : DeltaOperator {
  JoinSide left, right;
  // Right-schema indexes of the non-key attributes carried into the
  // output, in right-schema order (mirrors the batch join).
  std::vector<size_t> right_carry_idx;

  uint8_t tag() const override { return 2; }
  bool refresh() const override { return false; }

  StatusOr<std::vector<Record>> Apply(
      const std::vector<std::vector<Record>>& inputs) override {
    std::vector<Record> out;
    auto combine = [&](const Record& l, const Record& r) {
      Record nr = l;
      for (size_t i : right_carry_idx) nr.Append(r.value(i));
      out.push_back(std::move(nr));
    };
    const size_t right_begin = right.staged.size();
    std::map<Key, std::vector<size_t>> staged_right;
    for (const Record& r : inputs[1]) {
      if (right.Stage(r)) {
        staged_right[right.staged_keys.back()].push_back(
            right.staged.size() - 1);
      }
    }
    // New pairs, each exactly once:
    //   (delta-left x old-right), (delta-left x delta-right),
    //   (old-left x delta-right).
    for (const Record& l : inputs[0]) {
      if (!left.Stage(l)) continue;
      const Key& key = left.staged_keys.back();
      auto old_hit = right.index.find(key);
      if (old_hit != right.index.end()) {
        for (size_t i : old_hit->second) combine(l, right.rows[i]);
      }
      auto new_hit = staged_right.find(key);
      if (new_hit != staged_right.end()) {
        for (size_t i : new_hit->second) combine(l, right.staged[i]);
      }
    }
    for (size_t i = right_begin; i < right.staged.size(); ++i) {
      auto old_hit = left.index.find(right.staged_keys[i]);
      if (old_hit == left.index.end()) continue;
      for (size_t j : old_hit->second) combine(left.rows[j], right.staged[i]);
    }
    return out;
  }

  void Commit() override {
    left.Commit();
    right.Commit();
  }
  void Discard() override {
    left.Discard();
    right.Discard();
  }

  void Save(std::string& out) const override {
    PutRecords(out, left.rows);
    PutRecords(out, right.rows);
  }

  Status Restore(WireReader& reader) override {
    ETLOPT_RETURN_NOT_OK(left.Restore(reader));
    return right.Restore(reader);
  }
};

struct AggregationDelta final : DeltaOperator {
  std::vector<size_t> group_idx, arg_idx;
  std::vector<AggFn> fns;
  Overlay<Key, std::vector<AggAcc>> groups;

  uint8_t tag() const override { return 3; }
  bool refresh() const override { return true; }

  StatusOr<std::vector<Record>> Apply(
      const std::vector<std::vector<Record>>& inputs) override {
    const std::vector<AggAcc> fresh(fns.size());
    for (const Record& r : inputs[0]) {
      std::vector<AggAcc>& accs =
          groups.Touch(ExtractKey(r, group_idx), fresh);
      for (size_t i = 0; i < arg_idx.size(); ++i) {
        accs[i].Add(r.value(arg_idx[i]));
      }
    }
    // Full refresh in sorted key order, staged groups shadowing their
    // committed values: exactly the table the batch engine would emit
    // over the whole prefix.
    std::vector<Record> out;
    auto emit = [&](const Key& key, const std::vector<AggAcc>& accs) {
      Record nr;
      for (const Value& k : key) nr.Append(k);
      for (size_t i = 0; i < fns.size(); ++i) {
        nr.Append(accs[i].Result(fns[i]));
      }
      out.push_back(std::move(nr));
    };
    auto main_it = groups.committed.begin();
    const auto main_end = groups.committed.end();
    for (const auto& [key, accs] : groups.staged) {
      for (; main_it != main_end && main_it->first < key; ++main_it) {
        emit(main_it->first, main_it->second);
      }
      if (main_it != main_end && main_it->first == key) ++main_it;
      emit(key, accs);
    }
    for (; main_it != main_end; ++main_it) {
      emit(main_it->first, main_it->second);
    }
    return out;
  }

  void Commit() override { groups.Commit(); }
  void Discard() override { groups.staged.clear(); }

  void Save(std::string& out) const override {
    PutU64(out, groups.committed.size());
    for (const auto& [key, accs] : groups.committed) {
      PutValues(out, key);
      PutU32(out, static_cast<uint32_t>(accs.size()));
      for (const AggAcc& acc : accs) {
        PutDouble(out, acc.sum);
        PutU64(out, static_cast<uint64_t>(acc.non_null));
        PutValue(out, acc.min);
        PutValue(out, acc.max);
      }
    }
  }

  Status Restore(WireReader& reader) override {
    ETLOPT_ASSIGN_OR_RETURN(uint64_t n, reader.U64());
    for (uint64_t i = 0; i < n; ++i) {
      ETLOPT_ASSIGN_OR_RETURN(Key key, ReadKey(reader, group_idx.size()));
      ETLOPT_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
      if (count != fns.size()) {
        return Status::InvalidArgument(
            "stream checkpoint: accumulator count mismatch");
      }
      std::vector<AggAcc> accs(count);
      for (AggAcc& acc : accs) {
        ETLOPT_ASSIGN_OR_RETURN(acc.sum, reader.Double());
        ETLOPT_ASSIGN_OR_RETURN(uint64_t non_null, reader.U64());
        acc.non_null = static_cast<int64_t>(non_null);
        ETLOPT_ASSIGN_OR_RETURN(acc.min, ReadValue(reader));
        ETLOPT_ASSIGN_OR_RETURN(acc.max, ReadValue(reader));
      }
      groups.staged.emplace(std::move(key), std::move(accs));
    }
    return Status::OK();
  }
};

// Difference (keep_matched = false) and Intersection (true).
struct BagDelta final : DeltaOperator {
  // Right rows are counted realigned to the left (and output) schema.
  Schema left_schema, right_schema;
  bool keep_matched = false;
  Overlay<Record, int64_t> left_counts, right_counts;
  // Distinct left rows in first-encounter order: committed, then staged.
  std::vector<Record> order, staged_order;

  uint8_t tag() const override { return 4; }
  bool refresh() const override { return true; }

  StatusOr<std::vector<Record>> Apply(
      const std::vector<std::vector<Record>>& inputs) override {
    ETLOPT_ASSIGN_OR_RETURN(
        std::vector<Record> right,
        RealignRecords(inputs[1], right_schema, left_schema));
    for (const Record& r : right) ++right_counts.Touch(r, 0);
    for (const Record& l : inputs[0]) {
      if (left_counts.Touch(l, 0)++ == 0) staged_order.push_back(l);
    }
    // Full refresh: (cl - cr)+ copies for difference, min(cl, cr) for
    // intersection, distinct left rows in first-encounter order.
    std::vector<Record> out;
    for (const auto* rows : {&order, &staged_order}) {
      for (const Record& r : *rows) {
        const int64_t cl = left_counts.Current(r);
        const int64_t cr = right_counts.Current(r);
        const int64_t n = keep_matched ? std::min(cl, cr)
                                       : std::max<int64_t>(cl - cr, 0);
        out.insert(out.end(), static_cast<size_t>(n), r);
      }
    }
    return out;
  }

  void Commit() override {
    left_counts.Commit();
    right_counts.Commit();
    order.insert(order.end(), std::make_move_iterator(staged_order.begin()),
                 std::make_move_iterator(staged_order.end()));
    staged_order.clear();
  }
  void Discard() override {
    left_counts.staged.clear();
    right_counts.staged.clear();
    staged_order.clear();
  }

  void Save(std::string& out) const override {
    PutRecords(out, order);
    for (const auto* counts : {&left_counts, &right_counts}) {
      PutU64(out, counts->committed.size());
      for (const auto& [r, c] : counts->committed) {
        PutRecord(out, r);
        PutU64(out, static_cast<uint64_t>(c));
      }
    }
  }

  Status Restore(WireReader& reader) override {
    ETLOPT_ASSIGN_OR_RETURN(staged_order,
                            ReadStateRows(reader, left_schema.size()));
    auto read_counts = [&](Overlay<Record, int64_t>& counts,
                           size_t arity) -> Status {
      ETLOPT_ASSIGN_OR_RETURN(uint64_t n, reader.U64());
      for (uint64_t i = 0; i < n; ++i) {
        ETLOPT_ASSIGN_OR_RETURN(Record r, ReadRecord(reader));
        if (r.size() != arity) return Status::InvalidArgument(kMisfitRow);
        ETLOPT_ASSIGN_OR_RETURN(uint64_t c, reader.U64());
        counts.staged[std::move(r)] = static_cast<int64_t>(c);
      }
      return Status::OK();
    };
    ETLOPT_RETURN_NOT_OK(read_counts(left_counts, left_schema.size()));
    return read_counts(right_counts, left_schema.size());
  }
};

}  // namespace

StatusOr<std::vector<Record>> ReadStateRows(WireReader& reader,
                                           size_t arity) {
  ETLOPT_ASSIGN_OR_RETURN(std::vector<Record> rows, ReadRecords(reader));
  if (!AllRowsHaveArity(rows, arity)) {
    return Status::InvalidArgument(kMisfitRow);
  }
  return rows;
}

StatusOr<std::unique_ptr<DeltaOperator>> MakeDeltaOperator(
    const Activity& activity, const std::vector<Schema>& input_schemas) {
  const Schema& in = input_schemas[0];
  switch (activity.kind()) {
    case ActivityKind::kPrimaryKeyCheck: {
      auto op = std::make_unique<PrimaryKeyDelta>();
      ETLOPT_ASSIGN_OR_RETURN(
          op->key_idx,
          ResolveAttrs(in, activity.params_as<PrimaryKeyParams>().key_attrs));
      return std::unique_ptr<DeltaOperator>(std::move(op));
    }
    case ActivityKind::kJoin: {
      const auto& keys = activity.params_as<JoinParams>().key_attrs;
      const Schema& right = input_schemas[1];
      auto op = std::make_unique<JoinDelta>();
      ETLOPT_ASSIGN_OR_RETURN(op->left.key_idx, ResolveAttrs(in, keys));
      ETLOPT_ASSIGN_OR_RETURN(op->right.key_idx, ResolveAttrs(right, keys));
      op->left.arity = in.size();
      op->right.arity = right.size();
      for (size_t i = 0; i < right.size(); ++i) {
        if (std::find(keys.begin(), keys.end(), right.attribute(i).name) ==
            keys.end()) {
          op->right_carry_idx.push_back(i);
        }
      }
      return std::unique_ptr<DeltaOperator>(std::move(op));
    }
    case ActivityKind::kAggregation: {
      const auto& p = activity.params_as<AggregationParams>();
      auto op = std::make_unique<AggregationDelta>();
      ETLOPT_ASSIGN_OR_RETURN(op->group_idx, ResolveAttrs(in, p.group_by));
      std::vector<std::string> args;
      for (const auto& spec : p.aggregates) {
        args.push_back(spec.arg);
        op->fns.push_back(spec.fn);
      }
      ETLOPT_ASSIGN_OR_RETURN(op->arg_idx, ResolveAttrs(in, args));
      return std::unique_ptr<DeltaOperator>(std::move(op));
    }
    case ActivityKind::kDifference:
    case ActivityKind::kIntersection: {
      auto op = std::make_unique<BagDelta>();
      op->left_schema = in;
      op->right_schema = input_schemas[1];
      op->keep_matched = activity.kind() == ActivityKind::kIntersection;
      return std::unique_ptr<DeltaOperator>(std::move(op));
    }
    default:
      return std::unique_ptr<DeltaOperator>();
  }
}

}  // namespace etlopt
