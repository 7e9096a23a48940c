#include "scenario/scenario_spec.h"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "scenario/scenario_json.h"

namespace one4all {

const char* ScenarioFaultKindName(ScenarioFault::Kind kind) {
  switch (kind) {
    case ScenarioFault::Kind::kStalledPublisher: return "stalled_publisher";
    case ScenarioFault::Kind::kWriteRefusal: return "write_refusal";
    case ScenarioFault::Kind::kSlowReader: return "slow_reader";
    case ScenarioFault::Kind::kAdmissionSaturation:
      return "admission_saturation";
  }
  return "?";
}

namespace {

std::string At(const JsonValue& value) {
  return "line " + std::to_string(value.line) + ", column " +
         std::to_string(value.column) + ": ";
}

/// Field-extraction view over one JSON object: typed getters with
/// line-precise errors, and a final unknown-key sweep so every key of the
/// object must have been consumed by the schema.
class ObjectReader {
 public:
  ObjectReader(const JsonValue& value, std::string context)
      : value_(value), context_(std::move(context)) {}

  Status Check() const {
    if (!value_.is_object()) {
      return Status::InvalidArgument(At(value_) + context_ +
                                     " must be an object, got " +
                                     JsonValue::KindName(value_.kind));
    }
    return Status::OK();
  }

  const JsonValue* Find(const std::string& key) {
    seen_.insert(key);
    return value_.Find(key);
  }

  Status GetString(const std::string& key, std::string* out,
                   bool required = false) {
    const JsonValue* v = Find(key);
    if (v == nullptr) return Missing(key, required);
    if (!v->is_string()) return TypeError(*v, key, "a string");
    *out = v->string_value;
    return Status::OK();
  }

  Status GetInt(const std::string& key, int64_t* out, int64_t min,
                int64_t max) {
    const JsonValue* v = Find(key);
    if (v == nullptr) return Status::OK();
    if (!v->is_number() || !v->number_is_integer) {
      return TypeError(*v, key, "an integer");
    }
    if (v->integer < min || v->integer > max) {
      return Status::InvalidArgument(
          At(*v) + context_ + "." + key + " = " +
          std::to_string(v->integer) + " is outside [" +
          std::to_string(min) + ", " + std::to_string(max) + "]");
    }
    *out = v->integer;
    return Status::OK();
  }

  Status GetUint64(const std::string& key, uint64_t* out) {
    int64_t v = static_cast<int64_t>(*out);
    O4A_RETURN_NOT_OK(GetInt(key, &v, 0, INT64_MAX));
    *out = static_cast<uint64_t>(v);
    return Status::OK();
  }

  Status GetDouble(const std::string& key, double* out, double min,
                   double max) {
    const JsonValue* v = Find(key);
    if (v == nullptr) return Status::OK();
    if (!v->is_number()) return TypeError(*v, key, "a number");
    if (v->number < min || v->number > max) {
      std::ostringstream msg;
      msg << At(*v) << context_ << "." << key << " = " << v->number
          << " is outside [" << min << ", " << max << "]";
      return Status::InvalidArgument(msg.str());
    }
    *out = v->number;
    return Status::OK();
  }

  /// Enum-by-name field: `names[i]` selects value i.
  Status GetEnum(const std::string& key,
                 const std::vector<std::string>& names, int* out) {
    const JsonValue* v = Find(key);
    if (v == nullptr) return Status::OK();
    if (!v->is_string()) return TypeError(*v, key, "a string");
    for (size_t i = 0; i < names.size(); ++i) {
      if (v->string_value == names[i]) {
        *out = static_cast<int>(i);
        return Status::OK();
      }
    }
    std::string allowed;
    for (const std::string& name : names) {
      allowed += (allowed.empty() ? "\"" : ", \"") + name + "\"";
    }
    return Status::InvalidArgument(At(*v) + context_ + "." + key + " \"" +
                                   v->string_value + "\" is not one of " +
                                   allowed);
  }

  /// Every key of the object must have been consumed by a getter.
  Status RejectUnknownKeys() const {
    for (const auto& [key, v] : value_.members) {
      if (seen_.count(key) == 0) {
        return Status::InvalidArgument(At(v) + context_ +
                                       " has unknown key \"" + key + "\"");
      }
    }
    return Status::OK();
  }

 private:
  Status Missing(const std::string& key, bool required) const {
    if (!required) return Status::OK();
    return Status::InvalidArgument(At(value_) + context_ +
                                   " is missing required key \"" + key +
                                   "\"");
  }

  Status TypeError(const JsonValue& v, const std::string& key,
                   const char* want) const {
    return Status::InvalidArgument(At(v) + context_ + "." + key +
                                   " must be " + want + ", got " +
                                   JsonValue::KindName(v.kind));
  }

  const JsonValue& value_;
  std::string context_;
  std::set<std::string> seen_;
};

Status ParseGrid(const JsonValue& v, ScenarioGrid* out) {
  ObjectReader reader(v, "grid");
  O4A_RETURN_NOT_OK(reader.Check());
  O4A_RETURN_NOT_OK(reader.GetInt("size", &out->size, 4, 256));
  O4A_RETURN_NOT_OK(reader.GetInt("timesteps", &out->timesteps, 16, 100000));
  O4A_RETURN_NOT_OK(reader.GetString("preset", &out->preset));
  if (out->preset != "taxi" && out->preset != "freight") {
    return Status::InvalidArgument(At(v) +
                                   "grid.preset must be \"taxi\" or "
                                   "\"freight\", got \"" +
                                   out->preset + "\"");
  }
  return reader.RejectUnknownKeys();
}

Status ParseServing(const JsonValue& v, ScenarioServing* out) {
  ObjectReader reader(v, "serving");
  O4A_RETURN_NOT_OK(reader.Check());
  O4A_RETURN_NOT_OK(
      reader.GetInt("max_inflight", &out->max_inflight, 1, INT64_MAX / 2));
  O4A_RETURN_NOT_OK(reader.GetInt("retain_timesteps",
                                  &out->retain_timesteps, 0, 100000));
  O4A_RETURN_NOT_OK(reader.GetInt("shards", &out->shards, 1, 64));
  int strategy = static_cast<int>(out->strategy);
  O4A_RETURN_NOT_OK(reader.GetEnum(
      "strategy", {"direct", "union", "union_subtraction"}, &strategy));
  out->strategy = static_cast<QueryStrategy>(strategy);
  return reader.RejectUnknownKeys();
}

Status ParseIngest(const JsonValue& v, ScenarioIngest* out) {
  ObjectReader reader(v, "ingest");
  O4A_RETURN_NOT_OK(reader.Check());
  O4A_RETURN_NOT_OK(reader.GetInt("steps", &out->steps, 1, 100000));
  O4A_RETURN_NOT_OK(reader.GetInt("publish_every_ticks",
                                  &out->publish_every_ticks, 1, 100000));
  O4A_RETURN_NOT_OK(reader.GetDouble("churn_fraction",
                                     &out->churn_fraction, 1e-6, 1.0));
  return reader.RejectUnknownKeys();
}

Status ParseArrival(const JsonValue& v, ScenarioArrival* out) {
  ObjectReader reader(v, "arrival");
  O4A_RETURN_NOT_OK(reader.Check());
  int mode = static_cast<int>(out->mode);
  O4A_RETURN_NOT_OK(reader.GetEnum("mode", {"open", "closed"}, &mode));
  out->mode = static_cast<ScenarioArrival::Mode>(mode);
  O4A_RETURN_NOT_OK(
      reader.GetInt("duration_ticks", &out->duration_ticks, 1, 1000000));
  O4A_RETURN_NOT_OK(
      reader.GetDouble("rate_per_tick", &out->rate_per_tick, 0.0, 1e6));
  O4A_RETURN_NOT_OK(reader.GetInt("clients", &out->clients, 1, 4096));
  const JsonValue* bursts = reader.Find("bursts");
  if (bursts != nullptr) {
    if (!bursts->is_array()) {
      return Status::InvalidArgument(At(*bursts) +
                                     "arrival.bursts must be an array");
    }
    for (const JsonValue& item : bursts->items) {
      ObjectReader burst_reader(item, "arrival.bursts[]");
      O4A_RETURN_NOT_OK(burst_reader.Check());
      ScenarioBurst burst;
      O4A_RETURN_NOT_OK(
          burst_reader.GetInt("start_tick", &burst.start_tick, 0, 1000000));
      O4A_RETURN_NOT_OK(
          burst_reader.GetInt("end_tick", &burst.end_tick, 0, 1000000));
      O4A_RETURN_NOT_OK(
          burst_reader.GetDouble("multiplier", &burst.multiplier, 0.0, 1e4));
      O4A_RETURN_NOT_OK(burst_reader.RejectUnknownKeys());
      if (burst.end_tick <= burst.start_tick) {
        return Status::InvalidArgument(
            At(item) + "arrival.bursts[] window is empty (end_tick <= "
                       "start_tick)");
      }
      out->bursts.push_back(burst);
    }
  }
  return reader.RejectUnknownKeys();
}

Status ParseRegions(const JsonValue& v, ScenarioRegions* out) {
  ObjectReader reader(v, "regions");
  O4A_RETURN_NOT_OK(reader.Check());
  int style = static_cast<int>(out->style);
  O4A_RETURN_NOT_OK(
      reader.GetEnum("style", {"voronoi", "hexagon", "road_grid"}, &style));
  out->style = static_cast<RegionStyle>(style);
  O4A_RETURN_NOT_OK(
      reader.GetDouble("mean_cells", &out->mean_cells, 1.0, 1e5));
  O4A_RETURN_NOT_OK(reader.GetUint64("seed", &out->seed));
  O4A_RETURN_NOT_OK(
      reader.GetDouble("zipf_exponent", &out->zipf_exponent, 0.0, 8.0));
  const JsonValue* rects = reader.Find("hotspot_rects");
  if (rects != nullptr) {
    if (!rects->is_array()) {
      return Status::InvalidArgument(
          At(*rects) + "regions.hotspot_rects must be an array");
    }
    for (const JsonValue& item : rects->items) {
      if (!item.is_array() || item.items.size() != 4) {
        return Status::InvalidArgument(
            At(item) + "regions.hotspot_rects[] must be [r0, c0, r1, c1]");
      }
      std::array<int64_t, 4> rect{};
      for (size_t i = 0; i < 4; ++i) {
        const JsonValue& coordinate = item.items[i];
        if (!coordinate.is_number() || !coordinate.number_is_integer ||
            coordinate.integer < 0) {
          return Status::InvalidArgument(
              At(coordinate) +
              "regions.hotspot_rects[] coordinates must be non-negative "
              "integers");
        }
        rect[i] = coordinate.integer;
      }
      if (rect[2] <= rect[0] || rect[3] <= rect[1]) {
        return Status::InvalidArgument(At(item) +
                                       "regions.hotspot_rects[] rect is "
                                       "empty (end <= start)");
      }
      out->hotspot_rects.push_back(rect);
    }
  }
  return reader.RejectUnknownKeys();
}

Status ParseMix(const JsonValue& v, ScenarioMix* out) {
  ObjectReader reader(v, "mix");
  O4A_RETURN_NOT_OK(reader.Check());
  // An explicit mix starts from zero — the point=1.0 default only applies
  // when the whole "mix" object is absent.
  out->point = 0.0;
  O4A_RETURN_NOT_OK(reader.GetDouble("point", &out->point, 0.0, 1.0));
  O4A_RETURN_NOT_OK(
      reader.GetDouble("time_range", &out->time_range, 0.0, 1.0));
  O4A_RETURN_NOT_OK(
      reader.GetDouble("multi_region", &out->multi_region, 0.0, 1.0));
  O4A_RETURN_NOT_OK(reader.GetDouble("top_k", &out->top_k, 0.0, 1.0));
  O4A_RETURN_NOT_OK(reader.GetInt("range_len", &out->range_len, 1, 100000));
  O4A_RETURN_NOT_OK(reader.GetInt("group_size", &out->group_size, 1, 4096));
  O4A_RETURN_NOT_OK(reader.GetInt("k", &out->k, 1, 4096));
  int aggregation = static_cast<int>(out->aggregation);
  O4A_RETURN_NOT_OK(
      reader.GetEnum("aggregation", {"sum", "mean", "max"}, &aggregation));
  out->aggregation = static_cast<TimeAggregation>(aggregation);
  return reader.RejectUnknownKeys();
}

Status ParseFaults(const JsonValue& v, std::vector<ScenarioFault>* out) {
  if (!v.is_array()) {
    return Status::InvalidArgument(At(v) + "faults must be an array");
  }
  for (const JsonValue& item : v.items) {
    ObjectReader reader(item, "faults[]");
    O4A_RETURN_NOT_OK(reader.Check());
    ScenarioFault fault;
    int kind = static_cast<int>(fault.kind);
    O4A_RETURN_NOT_OK(reader.GetEnum("kind",
                                     {"stalled_publisher", "write_refusal",
                                      "slow_reader", "admission_saturation"},
                                     &kind));
    fault.kind = static_cast<ScenarioFault::Kind>(kind);
    if (item.Find("kind") == nullptr) {
      return Status::InvalidArgument(At(item) +
                                     "faults[] is missing required key "
                                     "\"kind\"");
    }
    O4A_RETURN_NOT_OK(
        reader.GetInt("start_tick", &fault.start_tick, 0, 1000000));
    O4A_RETURN_NOT_OK(reader.GetInt("end_tick", &fault.end_tick, 0, 1000000));
    O4A_RETURN_NOT_OK(reader.RejectUnknownKeys());
    if (fault.end_tick <= fault.start_tick) {
      return Status::InvalidArgument(
          At(item) + "faults[] window is empty (end_tick <= start_tick)");
    }
    out->push_back(fault);
  }
  return Status::OK();
}

}  // namespace

Status ScenarioSpec::Validate() const {
  if (name.empty()) {
    return Status::InvalidArgument("scenario name must not be empty");
  }
  const double total =
      mix.point + mix.time_range + mix.multi_region + mix.top_k;
  if (std::abs(total - 1.0) > 1e-6) {
    std::ostringstream msg;
    msg << "mix fractions must sum to 1.0, got " << total;
    return Status::InvalidArgument(msg.str());
  }
  for (const ScenarioFault& fault : faults) {
    if (fault.end_tick > arrival.duration_ticks) {
      return Status::InvalidArgument(
          std::string("fault ") + ScenarioFaultKindName(fault.kind) +
          " ends at tick " + std::to_string(fault.end_tick) +
          ", past the run's duration_ticks " +
          std::to_string(arrival.duration_ticks));
    }
  }
  if (mix.range_len > ingest.steps) {
    return Status::InvalidArgument(
        "mix.range_len " + std::to_string(mix.range_len) +
        " exceeds ingest.steps " + std::to_string(ingest.steps) +
        " (a range query can never span more than the served window)");
  }
  return Status::OK();
}

Result<ScenarioSpec> ParseScenarioSpec(const std::string& json_text) {
  O4A_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json_text));
  ObjectReader reader(root, "scenario");
  O4A_RETURN_NOT_OK(reader.Check());

  ScenarioSpec spec;
  O4A_RETURN_NOT_OK(reader.GetString("name", &spec.name, /*required=*/true));
  O4A_RETURN_NOT_OK(reader.GetString("description", &spec.description));
  O4A_RETURN_NOT_OK(reader.GetUint64("seed", &spec.seed));

  struct Section {
    const char* key;
    Status (*parse)(const JsonValue&, ScenarioSpec*);
  };
  static const Section kSections[] = {
      {"grid", +[](const JsonValue& v, ScenarioSpec* s) {
         return ParseGrid(v, &s->grid);
       }},
      {"serving", +[](const JsonValue& v, ScenarioSpec* s) {
         return ParseServing(v, &s->serving);
       }},
      {"ingest", +[](const JsonValue& v, ScenarioSpec* s) {
         return ParseIngest(v, &s->ingest);
       }},
      {"arrival", +[](const JsonValue& v, ScenarioSpec* s) {
         return ParseArrival(v, &s->arrival);
       }},
      {"regions", +[](const JsonValue& v, ScenarioSpec* s) {
         return ParseRegions(v, &s->regions);
       }},
      {"mix", +[](const JsonValue& v, ScenarioSpec* s) {
         return ParseMix(v, &s->mix);
       }},
      {"faults", +[](const JsonValue& v, ScenarioSpec* s) {
         return ParseFaults(v, &s->faults);
       }},
  };
  for (const Section& section : kSections) {
    const JsonValue* v = reader.Find(section.key);
    if (v != nullptr) O4A_RETURN_NOT_OK(section.parse(*v, &spec));
  }
  O4A_RETURN_NOT_OK(reader.RejectUnknownKeys());
  O4A_RETURN_NOT_OK(spec.Validate());
  return spec;
}

Result<ScenarioSpec> LoadScenarioSpec(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read scenario spec " + path);
  std::ostringstream text;
  text << in.rdbuf();
  auto spec = ParseScenarioSpec(text.str());
  if (!spec.ok()) {
    return Status(spec.status().code(),
                  path + ": " + spec.status().message());
  }
  return spec;
}

}  // namespace one4all
