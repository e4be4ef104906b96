#include "sched/schedule_io.h"

#include "common/error.h"

namespace transtore::sched {
namespace {

[[nodiscard]] const char* to_string(leg_kind k) {
  switch (k) {
    case leg_kind::direct: return "direct";
    case leg_kind::store: return "store";
    case leg_kind::fetch: return "fetch";
    case leg_kind::reagent: return "reagent";
  }
  return "direct";
}

[[nodiscard]] leg_kind leg_kind_from(const std::string& name) {
  if (name == "direct") return leg_kind::direct;
  if (name == "store") return leg_kind::store;
  if (name == "fetch") return leg_kind::fetch;
  if (name == "reagent") return leg_kind::reagent;
  throw invalid_input_error("schedule_io: unknown leg kind \"" + name + "\"");
}

[[nodiscard]] const char* to_string(transfer_kind k) {
  switch (k) {
    case transfer_kind::handoff: return "handoff";
    case transfer_kind::direct: return "direct";
    case transfer_kind::cached: return "cached";
  }
  return "handoff";
}

[[nodiscard]] transfer_kind transfer_kind_from(const std::string& name) {
  if (name == "handoff") return transfer_kind::handoff;
  if (name == "direct") return transfer_kind::direct;
  if (name == "cached") return transfer_kind::cached;
  throw invalid_input_error("schedule_io: unknown transfer kind \"" + name +
                            "\"");
}

void write_interval(json_writer& w, const time_interval& t) {
  w.field("begin", t.begin);
  w.field("end", t.end);
}

[[nodiscard]] time_interval interval_from(const json_value& v) {
  return {v.at("begin").as_int(), v.at("end").as_int()};
}

} // namespace

void write_schedule(json_writer& w, const schedule& s) {
  w.begin_object();
  w.field("device_count", s.device_count);
  w.field("transport_time", s.transport_time);
  w.begin_array("ops");
  for (const scheduled_op& op : s.ops) {
    w.begin_object();
    w.field("op", op.op);
    w.field("device", op.device);
    w.field("start", op.start);
    w.field("end", op.end);
    w.end_object();
  }
  w.end_array();
  w.begin_array("legs");
  for (const transport_leg& leg : s.legs) {
    w.begin_object();
    w.field("kind", to_string(leg.kind));
    w.field("source_op", leg.source_op);
    w.field("target_op", leg.target_op);
    w.field("from_device", leg.from_device);
    w.field("to_device", leg.to_device);
    write_interval(w, leg.window);
    w.end_object();
  }
  w.end_array();
  w.begin_array("transfers");
  for (const edge_transfer& t : s.transfers) {
    w.begin_object();
    w.field("source_op", t.source_op);
    w.field("target_op", t.target_op);
    w.field("kind", to_string(t.kind));
    w.field("hold_begin", t.cache_hold.begin);
    w.field("hold_end", t.cache_hold.end);
    w.field("store_leg", t.store_leg);
    w.field("fetch_leg", t.fetch_leg);
    w.field("direct_leg", t.direct_leg);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string serialize(const schedule& s) {
  json_writer w;
  w.begin_object();
  w.field("format", schedule_format_version);
  w.field("kind", "schedule");
  w.key("schedule");
  write_schedule(w, s);
  w.end_object();
  return w.str();
}

schedule schedule_from_value(const json_value& v) {
  schedule s;
  s.device_count = v.at("device_count").as_int();
  s.transport_time = v.at("transport_time").as_int();
  for (const json_value& e : v.at("ops").elements()) {
    scheduled_op op;
    op.op = e.at("op").as_int();
    op.device = e.at("device").as_int();
    op.start = e.at("start").as_int();
    op.end = e.at("end").as_int();
    s.ops.push_back(op);
  }
  for (const json_value& e : v.at("legs").elements()) {
    transport_leg leg;
    leg.kind = leg_kind_from(e.at("kind").as_string());
    leg.source_op = e.at("source_op").as_int();
    leg.target_op = e.at("target_op").as_int();
    leg.from_device = e.at("from_device").as_int();
    leg.to_device = e.at("to_device").as_int();
    leg.window = interval_from(e);
    s.legs.push_back(leg);
  }
  for (const json_value& e : v.at("transfers").elements()) {
    edge_transfer t;
    t.source_op = e.at("source_op").as_int();
    t.target_op = e.at("target_op").as_int();
    t.kind = transfer_kind_from(e.at("kind").as_string());
    t.cache_hold = {e.at("hold_begin").as_int(), e.at("hold_end").as_int()};
    t.store_leg = e.at("store_leg").as_int();
    t.fetch_leg = e.at("fetch_leg").as_int();
    t.direct_leg = e.at("direct_leg").as_int();
    s.transfers.push_back(t);
  }
  return s;
}

schedule schedule_from_json(const std::string& text) {
  const json_value doc = json_value::parse(text);
  if (doc.at("format").as_int() != schedule_format_version)
    throw invalid_input_error("schedule_io: unsupported format version " +
                              doc.at("format").number_text());
  require(doc.at("kind").as_string() == "schedule",
          "schedule_io: document kind is not \"schedule\"");
  return schedule_from_value(doc.at("schedule"));
}

} // namespace transtore::sched
