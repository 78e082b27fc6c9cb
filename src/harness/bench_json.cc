#include "harness/bench_json.h"

#include <cstdio>

namespace seemore {

void BenchResultsJson::AddCurve(const std::string& section,
                                const std::string& system,
                                const std::vector<RunResult>& curve) {
  Json points = Json::Array();
  for (const RunResult& point : curve) {
    points.Append(point.ToJson());
  }
  Json entry = Json::Object();
  entry.Set("system", system);
  entry.Set("points", std::move(points));
  SectionFor(section).Find("curves")->Append(std::move(entry));
}

void BenchResultsJson::AddScalar(const std::string& section,
                                 const std::string& name, double value) {
  Json entry = Json::Object();
  entry.Set("name", name);
  entry.Set("value", value);
  SectionFor(section).Find("scalars")->Append(std::move(entry));
}

void BenchResultsJson::Write() const {
  const std::string path = "BENCH_" + bench_name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  Json root = Json::Object();
  root.Set("bench", bench_name_);
  Json section_array = Json::Array();
  for (const Json& section : sections_) {
    section_array.Append(section);
  }
  root.Set("sections", std::move(section_array));
  const std::string text = root.Dump(2);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

Json& BenchResultsJson::SectionFor(const std::string& label) {
  for (Json& section : sections_) {
    const Json* existing = section.Find("label");
    if (existing != nullptr && existing->AsString() == label) {
      return section;
    }
  }
  Json section = Json::Object();
  section.Set("label", label);
  section.Set("curves", Json::Array());
  section.Set("scalars", Json::Array());
  sections_.push_back(std::move(section));
  return sections_.back();
}

}  // namespace seemore
