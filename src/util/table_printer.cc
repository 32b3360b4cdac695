#include "util/table_printer.h"

#include <iomanip>
#include <sstream>

#include "util/check.h"

namespace adamine {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  ADAMINE_CHECK(!headers_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  ADAMINE_CHECK_EQ(row.size(), headers_.size());
  rows_.push_back(std::move(row));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_line = [&] {
    os << "+";
    for (size_t w : widths) os << std::string(w + 2, '-') << "+";
    os << "\n";
  };
  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (size_t c = 0; c < row.size(); ++c) {
      os << " " << std::left << std::setw(static_cast<int>(widths[c]))
         << row[c] << " |";
    }
    os << "\n";
  };
  print_line();
  print_row(headers_);
  print_line();
  for (const auto& row : rows_) print_row(row);
  print_line();
}

std::string TablePrinter::ToString() const {
  std::ostringstream oss;
  Print(oss);
  return oss.str();
}

std::string TablePrinter::Num(double value, int digits) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(digits) << value;
  return oss.str();
}

std::string TablePrinter::MeanStd(double mean, double std, int digits) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(digits) << mean << " +- " << std;
  return oss.str();
}

}  // namespace adamine
