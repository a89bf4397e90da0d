#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "bench_util.h"

namespace archbench {

using archis::Result;
using archis::Status;
using archis::xml::XmlNodePtr;

namespace {

/// Number of a "T<n>" title, or -1 for any other text.
int64_t TitleNumber(const std::string& text) {
  if (text.size() < 2 || text[0] != 'T') return -1;
  for (size_t i = 1; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return -1;
  }
  return std::stoll(text.substr(1));
}

Result<Version> ReadVersion(const XmlNodePtr& node) {
  auto iv = node->Interval();
  if (!iv.ok()) return iv.status();
  Version v;
  const std::string text = node->StringValue();
  if (node->name() == "title") {
    v.value = TitleNumber(text);
  } else {
    try {
      v.value = std::stoll(text);
    } catch (...) {
      return Status::InvalidArgument(node->name() + " '" + text +
                                     "' is not an integer");
    }
  }
  v.tstart = iv->tstart;
  v.tend = iv->tend;
  return v;
}

}  // namespace

Result<HDocIndex> HDocIndex::FromDocument(const XmlNodePtr& root) {
  HDocIndex idx;
  if (root == nullptr) return Status::InvalidArgument("null H-document");
  for (const XmlNodePtr& emp : root->children()) {
    if (!emp->is_element() || emp->name() != "employee") continue;
    int64_t id = -1;
    std::vector<Version> sal, titles;
    for (const XmlNodePtr& attr : emp->children()) {
      if (!attr->is_element()) continue;
      if (attr->name() == "id") {
        id = std::stoll(attr->StringValue());
      } else if (attr->name() == "salary" || attr->name() == "title") {
        auto v = ReadVersion(attr);
        if (!v.ok()) return v.status();
        if (attr->name() == "salary") {
          sal.push_back(*v);
        } else if (v->value >= 0) {
          titles.push_back(*v);
        }
      }
    }
    if (id < 0) return Status::InvalidArgument("employee without <id>");
    std::sort(sal.begin(), sal.end());
    std::sort(titles.begin(), titles.end());
    idx.salaries[id] = std::move(sal);
    if (!titles.empty()) idx.titles[id] = std::move(titles);
  }
  return idx;
}

const char* ClassName(QClass c) {
  static const char* const kNames[] = {"q1", "q2", "q3", "q4", "q5", "q6"};
  return kNames[static_cast<int>(c)];
}

const char* OpSpanName(QClass c) {
  static const char* const kNames[] = {"op.q1", "op.q2", "op.q3",
                                       "op.q4", "op.q5", "op.q6"};
  return kNames[static_cast<int>(c)];
}

QueryParams DrawParams(std::mt19937_64& rng, const std::vector<int64_t>& ids,
                       Date first, Date date_from, Date last) {
  auto day_in = [&](Date lo, Date hi) {
    return lo.AddDays(UniformInt(rng, 0, hi - lo));
  };
  QueryParams p;
  p.id = ids[std::uniform_int_distribution<size_t>(0, ids.size() - 1)(rng)];
  p.date = day_in(date_from, last);
  p.slice_from = day_in(first.AddDays(365), last.AddDays(-730));
  p.join_after = day_in(first.AddDays(5 * 365), last.AddDays(-730));
  return p;
}

std::string QueryText(QClass c, const QueryParams& p) {
  const std::string d = p.date.ToString();
  char buf[768];
  switch (c) {
    case QClass::kQ1:
      std::snprintf(buf, sizeof(buf),
                    "for $s in doc(\"employees.xml\")/employees/"
                    "employee[id=%lld]/salary[tstart(.) <= xs:date(\"%s\") and "
                    "tend(.) >= xs:date(\"%s\")] return $s",
                    static_cast<long long>(p.id), d.c_str(), d.c_str());
      break;
    case QClass::kQ2:
      std::snprintf(buf, sizeof(buf),
                    "avg(doc(\"employees.xml\")/employees/employee/"
                    "salary[tstart(.) <= xs:date(\"%s\") and "
                    "tend(.) >= xs:date(\"%s\")])",
                    d.c_str(), d.c_str());
      break;
    case QClass::kQ3:
      std::snprintf(buf, sizeof(buf),
                    "for $s in doc(\"employees.xml\")/employees/"
                    "employee[id=%lld]/salary return $s",
                    static_cast<long long>(p.id));
      break;
    case QClass::kQ4:
      return "count(doc(\"employees.xml\")/employees/employee/salary)";
    case QClass::kQ5:
      std::snprintf(buf, sizeof(buf),
                    "count(for $e in doc(\"employees.xml\")/employees/employee "
                    "where exists($e/salary[. > 60000 and "
                    "tstart(.) <= xs:date(\"%s\") and "
                    "tend(.) >= xs:date(\"%s\")]) return $e)",
                    p.slice_from.AddDays(365).ToString().c_str(),
                    p.slice_from.ToString().c_str());
      break;
    case QClass::kQ6:
      std::snprintf(buf, sizeof(buf),
                    "max(for $e in doc(\"employees.xml\")/employees/employee "
                    "for $s1 in $e/salary for $s2 in $e/salary "
                    "where tstart($s1) >= xs:date(\"%s\") and "
                    "tstart($s2) > tstart($s1) and "
                    "tstart($s2) <= tstart($s1) + 730 "
                    "return number($s2) - number($s1))",
                    p.join_after.ToString().c_str());
      break;
  }
  return buf;
}

Answer Expected(const HDocIndex& doc, QClass c, const QueryParams& p) {
  Answer a;
  auto covers = [](const Version& v, Date from, Date to) {
    return v.tstart <= to && v.tend >= from;
  };
  switch (c) {
    case QClass::kQ1:
    case QClass::kQ3: {
      auto it = doc.salaries.find(p.id);
      if (it == doc.salaries.end()) break;
      for (const Version& v : it->second) {
        if (c == QClass::kQ3 || covers(v, p.date, p.date)) a.rows.push_back(v);
      }
      break;
    }
    case QClass::kQ2: {
      double sum = 0;
      size_t n = 0;
      for (const auto& [id, versions] : doc.salaries) {
        for (const Version& v : versions) {
          if (covers(v, p.date, p.date)) {
            sum += static_cast<double>(v.value);
            ++n;
          }
        }
      }
      if (n > 0) {
        a.has_number = true;
        a.number = sum / static_cast<double>(n);
      }
      break;
    }
    case QClass::kQ4: {
      size_t n = 0;
      for (const auto& [id, versions] : doc.salaries) n += versions.size();
      a.has_number = true;
      a.number = static_cast<double>(n);
      break;
    }
    case QClass::kQ5: {
      const Date to = p.slice_from.AddDays(365);
      size_t n = 0;
      for (const auto& [id, versions] : doc.salaries) {
        for (const Version& v : versions) {
          if (v.value > 60000 && covers(v, p.slice_from, to)) {
            ++n;
            break;
          }
        }
      }
      a.has_number = true;
      a.number = static_cast<double>(n);
      break;
    }
    case QClass::kQ6: {
      for (const auto& [id, versions] : doc.salaries) {
        for (const Version& s1 : versions) {
          if (s1.tstart < p.join_after) continue;
          for (const Version& s2 : versions) {
            if (s2.tstart > s1.tstart && s2.tstart <= s1.tstart.AddDays(730)) {
              const double d = static_cast<double>(s2.value - s1.value);
              if (!a.has_number || d > a.number) a.number = d;
              a.has_number = true;
            }
          }
        }
      }
      break;
    }
  }
  return a;
}

std::string TitleHistoryText(int64_t id) {
  return "for $t in doc(\"employees.xml\")/employees/employee[id=" +
         std::to_string(id) + "]/title return $t";
}

Result<std::vector<Version>> ReadVersions(const XmlNodePtr& root,
                                          const std::string& name) {
  if (root == nullptr) return Status::InvalidArgument("null result");
  std::vector<Version> out;
  std::function<Status(const XmlNodePtr&)> walk =
      [&](const XmlNodePtr& n) -> Status {
    for (const XmlNodePtr& ch : n->children()) {
      if (!ch->is_element()) continue;
      if (ch->name() == name) {
        auto v = ReadVersion(ch);
        if (!v.ok()) return v.status();
        out.push_back(*v);
      } else {
        ARCHIS_RETURN_NOT_OK(walk(ch));
      }
    }
    return Status::OK();
  };
  ARCHIS_RETURN_NOT_OK(walk(root));
  std::sort(out.begin(), out.end());
  return out;
}

Result<Answer> FromResult(QClass c, const XmlNodePtr& root) {
  Answer a;
  if (root == nullptr) return Status::InvalidArgument("null result");
  if (c == QClass::kQ1 || c == QClass::kQ3) {
    ARCHIS_ASSIGN_OR_RETURN(a.rows, ReadVersions(root, "salary"));
    return a;
  }
  std::string text = root->StringValue();
  text.erase(0, text.find_first_not_of(" \t\r\n"));
  text.erase(text.find_last_not_of(" \t\r\n") + 1);
  if (text.empty()) return a;
  try {
    a.number = std::stod(text);
  } catch (...) {
    return Status::InvalidArgument("non-numeric aggregate '" + text + "'");
  }
  a.has_number = true;
  return a;
}

bool SameAnswer(const Answer& expected, const Answer& actual,
                std::string* why) {
  if (expected.has_number != actual.has_number) {
    *why = expected.has_number ? "expected a number, got none"
                               : "expected an empty answer, got a number";
    return false;
  }
  if (expected.has_number) {
    const double tol =
        kRelTolerance * std::max(1.0, std::fabs(expected.number));
    if (std::fabs(expected.number - actual.number) > tol) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "expected %.10g, got %.10g",
                    expected.number, actual.number);
      *why = buf;
      return false;
    }
  }
  if (expected.rows != actual.rows) {
    *why = "expected " + std::to_string(expected.rows.size()) +
           " salary rows, got " + std::to_string(actual.rows.size()) +
           " (or different values/intervals)";
    return false;
  }
  return true;
}

bool CheckKeyHistory(const HDocIndex& doc, const KeyWrites& k,
                     std::string* why) {
  std::vector<Version> expected;
  for (const auto& [day, value] : k.writes) {
    if (!expected.empty() && expected.back().tstart == day) {
      expected.back().value = value;  // the day's last value wins
      continue;
    }
    if (!expected.empty()) expected.back().tend = day.AddDays(-1);
    expected.push_back(Version{value, day, Date::Forever()});
  }
  auto it = doc.titles.find(k.id);
  if (it == doc.titles.end()) {
    *why = "key " + std::to_string(k.id) + " missing from the H-document";
    return false;
  }
  const std::vector<Version>& got = it->second;
  for (size_t i = 1; i < got.size(); ++i) {
    if (got[i].tstart != got[i - 1].tend.AddDays(1)) {
      *why = "key " + std::to_string(k.id) +
             ": versions not contiguous / overlapping at " +
             got[i].tstart.ToString();
      return false;
    }
  }
  if (got != expected) {
    *why = "key " + std::to_string(k.id) + ": " + std::to_string(got.size()) +
           " versions, expected " + std::to_string(expected.size()) +
           " (one per written day holding its last value)";
    return false;
  }
  return true;
}

}  // namespace archbench
