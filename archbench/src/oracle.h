// The benchmark's answer oracle and the Table-3 query texts.
//
// The oracle reads a published H-document with plain loops (no xquery
// evaluator, translator or sqlxml executor) into a per-employee list of
// salary versions, and computes the six Table-3 answers from it. It also
// checks the title histories of keys the benchmark itself wrote: one
// version per written day holding that day's last value, with contiguous,
// non-overlapping intervals. The benchmark writes numbered titles ("T<n>",
// unique per writer), so a version's value is its number.
#ifndef ARCHBENCH_ORACLE_H_
#define ARCHBENCH_ORACLE_H_

#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/date.h"
#include "common/status.h"
#include "xml/node.h"

namespace archbench {

using archis::Date;

/// One temporal element of the H-document: a salary, or a numbered title.
struct Version {
  int64_t value = 0;
  Date tstart;
  Date tend;
  bool operator==(const Version&) const = default;
  auto operator<=>(const Version&) const = default;
};

/// The employees H-document reduced to what Table 3 reads.
struct HDocIndex {
  std::map<int64_t, std::vector<Version>> salaries;  ///< by employee id
  /// Numbered titles by employee id (other titles are left out).
  std::map<int64_t, std::vector<Version>> titles;

  /// Walks <employees>/<employee>/{id,salary,title} with plain loops.
  static archis::Result<HDocIndex> FromDocument(
      const archis::xml::XmlNodePtr& root);
};

/// The paper's six Table-3 queries.
enum class QClass { kQ1 = 0, kQ2, kQ3, kQ4, kQ5, kQ6 };
constexpr int kNumClasses = 6;
const char* ClassName(QClass c);  ///< "q1" .. "q6"
const char* OpSpanName(QClass c);  ///< "op.q1" .. "op.q6"

/// Parameters of one query, drawn from the seeded sequence.
struct QueryParams {
  int64_t id = 0;   ///< Q1 / Q3 probe id
  Date date;        ///< Q1 / Q2 snapshot date
  Date slice_from;  ///< Q5 slice [slice_from, slice_from + 365]
  Date join_after;  ///< Q6 join start
};

/// Draws parameters over a history spanning [first, last]: the Q1/Q2
/// date within [date_from, last], the Q5 slice and Q6 join start within
/// the history.
QueryParams DrawParams(std::mt19937_64& rng, const std::vector<int64_t>& ids,
                       Date first, Date date_from, Date last);

/// XQuery text of `c` with `p` (the Table-3 formulation the paper runs).
std::string QueryText(QClass c, const QueryParams& p);

/// A query answer in comparable form: salary rows (Q1/Q3) or a number
/// (Q2/Q4/Q5/Q6; absent for an empty aggregate).
struct Answer {
  std::vector<Version> rows;
  bool has_number = false;
  double number = 0;
};

/// The oracle's answer.
Answer Expected(const HDocIndex& doc, QClass c, const QueryParams& p);

/// The title history of one employee (the read-your-writes query).
std::string TitleHistoryText(int64_t id);

/// Every `name` element (value, tstart, tend) under `root`, sorted.
/// Titles are read as their number ("T<n>" -> n).
archis::Result<std::vector<Version>> ReadVersions(
    const archis::xml::XmlNodePtr& root, const std::string& name);

/// Reads an answer out of a <results> document.
archis::Result<Answer> FromResult(QClass c,
                                  const archis::xml::XmlNodePtr& root);

/// Numeric answers must agree within this relative tolerance (Q2's
/// average is the only non-integer one).
constexpr double kRelTolerance = 1e-9;

/// Compares actual to expected; on mismatch describes it in `*why`.
bool SameAnswer(const Answer& expected, const Answer& actual, std::string* why);

/// Acknowledged title writes to one key, in commit order: (commit day,
/// title number). The first entry is the insert.
struct KeyWrites {
  int64_t id = 0;
  std::vector<std::pair<Date, int64_t>> writes;
};

/// Checks the key's title history in `doc` against its writes: exactly
/// one version per written day holding that day's last value, each version
/// ending the day before the next one starts, the last one open (now).
bool CheckKeyHistory(const HDocIndex& doc, const KeyWrites& k,
                     std::string* why);

}  // namespace archbench

#endif  // ARCHBENCH_ORACLE_H_
