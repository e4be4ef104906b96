#include "arch/chip_io.h"

#include "common/error.h"

namespace transtore::arch {
namespace {

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

void write_chip(json_writer& w, const chip& c) {
  w.begin_object();
  w.field("grid_width", c.grid().width());
  w.field("grid_height", c.grid().height());
  write_int_array(w, "device_nodes", c.device_nodes());
  w.begin_array("paths");
  for (const routed_path& p : c.paths) {
    w.begin_object();
    w.field("task_id", p.task_id);
    write_int_array(w, "nodes", p.nodes);
    write_int_array(w, "edges", p.edges);
    w.field("begin", p.window.begin);
    w.field("end", p.window.end);
    w.end_object();
  }
  w.end_array();
  w.begin_array("caches");
  for (const cache_placement& cp : c.caches) {
    w.begin_object();
    w.field("cache_id", cp.cache_id);
    w.field("edge", cp.edge);
    w.field("begin", cp.hold.begin);
    w.field("end", cp.hold.end);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string serialize(const chip& c) {
  json_writer w;
  w.begin_object();
  w.field("format", chip_format_version);
  w.field("kind", "chip");
  w.key("chip");
  write_chip(w, c);
  w.end_object();
  return w.str();
}

chip chip_from_value(const json_value& v) {
  const int width = v.at("grid_width").as_int();
  const int height = v.at("grid_height").as_int();
  require(width >= 2 && height >= 2,
          "chip_io: grid dimensions must be at least 2x2");
  connection_grid grid(width, height);
  std::vector<int> device_nodes = int_array_from(v.at("device_nodes"));
  for (int node : device_nodes)
    if (node < 0 || node >= grid.node_count())
      throw invalid_input_error("chip_io: device node " +
                                std::to_string(node) + " out of range");
  chip c(std::move(grid), std::move(device_nodes));
  for (const json_value& e : v.at("paths").elements()) {
    routed_path p;
    p.task_id = e.at("task_id").as_int();
    p.nodes = int_array_from(e.at("nodes"));
    p.edges = int_array_from(e.at("edges"));
    require(p.nodes.empty() || p.edges.size() + 1 == p.nodes.size(),
            "chip_io: path edge/node counts are inconsistent");
    p.window = {e.at("begin").as_int(), e.at("end").as_int()};
    c.paths.push_back(std::move(p));
  }
  for (const json_value& e : v.at("caches").elements()) {
    cache_placement cp;
    cp.cache_id = e.at("cache_id").as_int();
    cp.edge = e.at("edge").as_int();
    if (cp.edge < 0 || cp.edge >= c.grid().edge_count())
      throw invalid_input_error("chip_io: cache edge " +
                                std::to_string(cp.edge) + " out of range");
    cp.hold = {e.at("begin").as_int(), e.at("end").as_int()};
    c.caches.push_back(cp);
  }
  return c;
}

chip chip_from_json(const std::string& text) {
  const json_value doc = json_value::parse(text);
  if (doc.at("format").as_int() != chip_format_version)
    throw invalid_input_error("chip_io: unsupported format version " +
                              doc.at("format").number_text());
  require(doc.at("kind").as_string() == "chip",
          "chip_io: document kind is not \"chip\"");
  return chip_from_value(doc.at("chip"));
}

} // namespace transtore::arch
