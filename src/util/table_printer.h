#ifndef ADAMINE_UTIL_TABLE_PRINTER_H_
#define ADAMINE_UTIL_TABLE_PRINTER_H_

#include <ostream>
#include <string>
#include <vector>

namespace adamine {

/// Accumulates rows of strings and prints them as an aligned, pipe-separated
/// table. Used by every bench binary to print rows in the same layout as the
/// paper's tables.
class TablePrinter {
 public:
  /// Creates a printer with the given column headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void AddRow(std::vector<std::string> row);

  /// Renders the table to `os`.
  void Print(std::ostream& os) const;

  /// Renders the table to a string.
  std::string ToString() const;

  /// Formats `value` with `digits` decimal places.
  static std::string Num(double value, int digits = 1);

  /// Formats "mean ± std" with `digits` decimal places.
  static std::string MeanStd(double mean, double std, int digits = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace adamine

#endif  // ADAMINE_UTIL_TABLE_PRINTER_H_
