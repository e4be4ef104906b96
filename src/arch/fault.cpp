#include "arch/fault.h"

#include <algorithm>

#include "common/error.h"

namespace transtore::arch {
namespace {

void sort_unique(std::vector<int>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

void require_in_range(const std::vector<int>& values, int limit,
                      const char* what) {
  for (int v : values)
    if (v < 0 || v >= limit)
      throw invalid_input_error(std::string("fault_set: ") + what + " id " +
                                std::to_string(v) + " out of range [0, " +
                                std::to_string(limit) + ")");
}

void write_int_array(json_writer& w, const std::string& key,
                     const std::vector<int>& values) {
  w.begin_array(key);
  for (int v : values) w.value(v);
  w.end_array();
}

[[nodiscard]] std::vector<int> int_array_from(const json_value& v) {
  std::vector<int> out;
  out.reserve(v.size());
  for (const json_value& e : v.elements()) out.push_back(e.as_int());
  return out;
}

} // namespace

void fault_set::normalize() {
  sort_unique(devices);
  sort_unique(valves);
  sort_unique(edges);
  sort_unique(storage);
}

void fault_set::validate(const connection_grid& grid,
                         int device_count) const {
  require_in_range(devices, device_count, "device");
  require_in_range(valves, grid.node_count(), "valve");
  require_in_range(edges, grid.edge_count(), "edge");
  require_in_range(storage, grid.edge_count(), "storage segment");
}

std::vector<bool> banned_node_map(const fault_set& faults,
                                  const connection_grid& grid) {
  std::vector<bool> banned(static_cast<std::size_t>(grid.node_count()), false);
  for (int n : faults.valves) banned[static_cast<std::size_t>(n)] = true;
  return banned;
}

std::vector<bool> banned_edge_map(const fault_set& faults,
                                  const connection_grid& grid) {
  std::vector<bool> banned(static_cast<std::size_t>(grid.edge_count()), false);
  for (int e : faults.edges) banned[static_cast<std::size_t>(e)] = true;
  for (int n : faults.valves)
    for (const auto& [edge, neighbor] : grid.incidences(n))
      banned[static_cast<std::size_t>(edge)] = true;
  return banned;
}

std::vector<bool> banned_storage_map(const fault_set& faults,
                                     const connection_grid& grid) {
  std::vector<bool> banned = banned_edge_map(faults, grid);
  for (int e : faults.storage) banned[static_cast<std::size_t>(e)] = true;
  return banned;
}

void write_fault_set(json_writer& w, const fault_set& f) {
  w.begin_object();
  write_int_array(w, "devices", f.devices);
  write_int_array(w, "valves", f.valves);
  write_int_array(w, "edges", f.edges);
  write_int_array(w, "storage", f.storage);
  w.end_object();
}

std::string serialize(const fault_set& f) {
  json_writer w;
  w.begin_object();
  w.field("format", fault_format_version);
  w.field("kind", "faults");
  w.key("faults");
  write_fault_set(w, f);
  w.end_object();
  return w.str();
}

fault_set fault_set_from_value(const json_value& v) {
  fault_set f;
  f.devices = int_array_from(v.at("devices"));
  f.valves = int_array_from(v.at("valves"));
  f.edges = int_array_from(v.at("edges"));
  f.storage = int_array_from(v.at("storage"));
  for (const int id : f.devices)
    require(id >= 0, "fault_set: negative device id");
  for (const int id : f.valves)
    require(id >= 0, "fault_set: negative valve id");
  for (const int id : f.edges) require(id >= 0, "fault_set: negative edge id");
  for (const int id : f.storage)
    require(id >= 0, "fault_set: negative storage id");
  f.normalize();
  return f;
}

fault_set fault_set_from_json(const std::string& text) {
  const json_value doc = json_value::parse(text);
  if (doc.at("format").as_int() != fault_format_version)
    throw invalid_input_error("fault_set: unsupported format version " +
                              doc.at("format").number_text());
  require(doc.at("kind").as_string() == "faults",
          "fault_set: document kind is not \"faults\"");
  return fault_set_from_value(doc.at("faults"));
}

} // namespace transtore::arch
