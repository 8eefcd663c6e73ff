// Console table and CSV rendering for the experiment harnesses. Every
// bench binary prints its results through Table, one table per experiment
// of the "Experiment index" in docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dsnd {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Start a new row; subsequent cell() calls fill it left to right.
  Table& row();
  Table& cell(const std::string& value);
  Table& cell(const char* value);
  Table& cell(std::int64_t value);
  Table& cell(std::uint64_t value);
  Table& cell(int value);
  /// Doubles are rendered with the given precision (default 2 decimals).
  Table& cell(double value, int precision = 2);

  /// Render as an aligned ASCII table.
  void print(std::ostream& out) const;
  /// Render as CSV (header row first).
  void print_csv(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared with benches).
std::string format_double(double value, int precision = 2);

}  // namespace dsnd
