#include "margot/operating_point.hpp"

#include <cstring>
#include <limits>

#include "support/error.hpp"

namespace socrates::margot {

namespace {

std::uint64_t hash_row(const int* row, std::size_t count) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t k = 0; k < count; ++k) {
    h ^= static_cast<std::uint32_t>(row[k]);
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace

KnowledgeBase::KnowledgeBase(std::vector<std::string> knob_names,
                             std::vector<std::string> metric_names)
    : knob_names_(std::move(knob_names)), metric_names_(std::move(metric_names)) {
  SOCRATES_REQUIRE(!knob_names_.empty());
  SOCRATES_REQUIRE(!metric_names_.empty());
}

KnowledgeBase::KnowledgeBase(const KnowledgeBase& other)
    : knob_names_(other.knob_names_), metric_names_(other.metric_names_) {
  copy_from(other);
}

KnowledgeBase& KnowledgeBase::operator=(const KnowledgeBase& other) {
  if (this != &other) {
    knob_names_ = other.knob_names_;
    metric_names_ = other.metric_names_;
    arena_ = support::Arena{};
    means_ = nullptr;
    stddevs_ = nullptr;
    knobs_ = nullptr;
    index_ = nullptr;
    size_ = 0;
    capacity_ = 0;
    copy_from(other);
  }
  return *this;
}

void KnowledgeBase::copy_from(const KnowledgeBase& other) {
  if (other.size_ == 0) return;
  // Same capacity, hence the same arena layout: one flat copy carries
  // the columns, the knob rows and the index slots.
  carve(other.capacity_);
  std::memcpy(arena_.data(), other.arena_.data(), other.arena_.used());
  size_ = other.size_;
}

void KnowledgeBase::carve(std::size_t capacity) {
  const std::size_t metrics = metric_names_.size();
  const std::size_t knobs = knob_names_.size();
  const std::size_t column_bytes = capacity * sizeof(double);
  arena_ = support::Arena(support::Arena::bytes_for(
      metrics * column_bytes, metrics * column_bytes,
      capacity * knobs * sizeof(int), 2 * capacity * sizeof(std::uint32_t)));
  means_ = arena_.allocate<double>(metrics * capacity);
  stddevs_ = arena_.allocate<double>(metrics * capacity);
  knobs_ = arena_.allocate<int>(capacity * knobs);
  index_ = arena_.allocate<std::uint32_t>(2 * capacity);
  capacity_ = capacity;
}

void KnowledgeBase::grow(std::size_t min_capacity) {
  std::size_t capacity = capacity_ == 0 ? 16 : capacity_ * 2;
  while (capacity < min_capacity) capacity *= 2;

  const support::Arena old = std::move(arena_);
  const double* old_means = means_;
  const double* old_stddevs = stddevs_;
  const int* old_knobs = knobs_;
  const std::size_t old_capacity = capacity_;
  carve(capacity);

  const std::size_t metrics = metric_names_.size();
  for (std::size_t m = 0; m < metrics && size_ > 0; ++m) {
    std::memcpy(means_ + m * capacity, old_means + m * old_capacity,
                size_ * sizeof(double));
    std::memcpy(stddevs_ + m * capacity, old_stddevs + m * old_capacity,
                size_ * sizeof(double));
  }
  if (size_ > 0)
    std::memcpy(knobs_, old_knobs, size_ * knob_names_.size() * sizeof(int));
  std::memset(index_, 0, 2 * capacity * sizeof(std::uint32_t));
  for (std::size_t i = 0; i < size_; ++i)
    index_[probe(knob_row(i), nullptr)] = static_cast<std::uint32_t>(i + 1);
}

std::size_t KnowledgeBase::probe(const int* row, std::size_t* compares) const {
  const std::size_t count = knob_names_.size();
  const std::size_t mask = 2 * capacity_ - 1;
  std::size_t slot = hash_row(row, count) & mask;
  while (index_[slot] != 0) {
    if (compares != nullptr) ++*compares;
    if (std::memcmp(knob_row(index_[slot] - 1), row, count * sizeof(int)) == 0) break;
    slot = (slot + 1) & mask;
  }
  return slot;
}

std::size_t KnowledgeBase::knob_index(const std::string& name) const {
  for (std::size_t i = 0; i < knob_names_.size(); ++i)
    if (knob_names_[i] == name) return i;
  SOCRATES_REQUIRE_MSG(false, "unknown knob '" << name << "'");
  return 0;  // unreachable
}

std::size_t KnowledgeBase::metric_index(const std::string& name) const {
  for (std::size_t i = 0; i < metric_names_.size(); ++i)
    if (metric_names_[i] == name) return i;
  SOCRATES_REQUIRE_MSG(false, "unknown metric '" << name << "'");
  return 0;  // unreachable
}

void KnowledgeBase::add(OperatingPoint op) {
  SOCRATES_REQUIRE_MSG(op.knobs.size() == knob_names_.size(),
                       "operating point has " << op.knobs.size() << " knobs, schema has "
                                              << knob_names_.size());
  SOCRATES_REQUIRE_MSG(op.metrics.size() == metric_names_.size(),
                       "operating point has " << op.metrics.size()
                                              << " metrics, schema has "
                                              << metric_names_.size());
  for (const auto& m : op.metrics) SOCRATES_REQUIRE(m.stddev >= 0.0);
  SOCRATES_REQUIRE_MSG(!find(op.knobs).has_value(), "duplicate operating point");
  SOCRATES_REQUIRE(size_ < std::numeric_limits<std::uint32_t>::max());

  if (size_ == capacity_) grow(size_ + 1);
  const std::size_t i = size_;
  std::memcpy(knobs_ + i * knob_names_.size(), op.knobs.data(),
              op.knobs.size() * sizeof(int));
  index_[probe(op.knobs.data(), nullptr)] = static_cast<std::uint32_t>(i + 1);
  for (std::size_t m = 0; m < op.metrics.size(); ++m) {
    means_[m * capacity_ + i] = op.metrics[m].mean;
    stddevs_[m * capacity_ + i] = op.metrics[m].stddev;
  }
  ++size_;
}

KnowledgeBase::PointView KnowledgeBase::operator[](std::size_t i) const {
  SOCRATES_REQUIRE(i < size_);
  return {KnobsView{knob_row(i), knob_names_.size()}, MetricsView{this, i}};
}

std::optional<std::size_t> KnowledgeBase::find(const std::vector<int>& knobs) const {
  if (knobs.size() != knob_names_.size() || size_ == 0) return std::nullopt;
  const std::uint32_t entry = index_[probe(knobs.data(), nullptr)];
  if (entry == 0) return std::nullopt;
  return entry - 1;
}

std::size_t KnowledgeBase::find_row_compares(const std::vector<int>& knobs) const {
  if (knobs.size() != knob_names_.size() || size_ == 0) return 0;
  std::size_t compares = 0;
  probe(knobs.data(), &compares);
  return compares;
}

}  // namespace socrates::margot
