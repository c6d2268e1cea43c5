// Structured result table for bench binaries. Cells keep their kind
// (text vs number) so the sinks in common/result_sink.h can render the
// same table as an aligned ASCII listing, CSV, or JSON with unquoted
// numeric fields.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace meshrt {

/// Column-aligned table with a header row. Numeric cells are formatted at
/// insertion (fixed precision) but remembered as numbers.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent cell() calls append to it.
  Table& row();
  Table& cell(const std::string& value);
  Table& cell(const char* value);
  Table& cell(double value, int precision = 2);
  Table& cell(std::int64_t value);

  /// Renders with space padding and a rule under the header.
  void print(std::ostream& os) const;

  /// Writes RFC-4180 CSV (quoting cells that need it).
  void writeCsv(std::ostream& os) const;

  /// Writes a JSON array of row objects keyed by the header; numeric cells
  /// are emitted unquoted.
  void writeJson(std::ostream& os) const;

  /// Convenience: writes CSV to `path`; returns false on I/O failure.
  bool writeCsvFile(const std::string& path) const;

  const std::vector<std::string>& header() const { return header_; }

 private:
  struct Cell {
    std::string text;
    bool numeric = false;
  };

  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
};

/// Formats `value` with `precision` digits after the decimal point.
std::string formatDouble(double value, int precision);

}  // namespace meshrt
