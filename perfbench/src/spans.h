// In-memory span recorder for the traced run: each span is (name, start,
// end, parent), kept in a flat vector while the run executes and written
// out once it ends. A layer's self time is its spans' durations minus the
// parts their child spans cover; the root span's self time is whatever no
// named layer accounts for (the residual).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class tracer {
 public:
  using clock = std::chrono::steady_clock;
  static constexpr std::size_t k_no_parent = static_cast<std::size_t>(-1);

  struct span {
    std::uint32_t name = 0;
    std::size_t parent = k_no_parent;
    clock::time_point start{};
    clock::time_point end{};
  };

  /// Stable id for a span name (intern once, open many times).
  std::uint32_t intern(std::string_view name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  /// Opens a span under the innermost open span; returns its index.
  std::size_t open(std::uint32_t name) {
    const std::size_t parent = stack_.empty() ? k_no_parent : stack_.back();
    spans_.push_back({name, parent, clock::now(), {}});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Closes the innermost open span, which must be `index`.
  void close(std::size_t index) {
    spans_[index].end = clock::now();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::string& name_of(std::uint32_t id) const {
    return names_.at(id);
  }

  /// Seconds of self time per span name (duration minus children).
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const auto& s : spans_) {
      if (s.parent != k_no_parent) child[s.parent] += seconds(s);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[names_[spans_[i].name]] += seconds(spans_[i]) - child[i];
    }
    return out;
  }

  /// Seconds of total (inclusive) time per span name.
  [[nodiscard]] std::map<std::string, double> total_seconds() const {
    std::map<std::string, double> out;
    for (const auto& s : spans_) out[names_[s.name]] += seconds(s);
    return out;
  }

  [[nodiscard]] static double seconds(const span& s) {
    return std::chrono::duration<double>(s.end - s.start).count();
  }

 private:
  std::vector<std::string> names_;
  std::vector<span> spans_;
  std::vector<std::size_t> stack_;
};

/// Opens a span for the enclosing scope.
class scoped_span {
 public:
  scoped_span(tracer& t, std::uint32_t name) : t_{t}, index_{t.open(name)} {}
  ~scoped_span() { t_.close(index_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  tracer& t_;
  std::size_t index_;
};

}  // namespace perfbench
