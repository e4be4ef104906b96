#include "assay/io.h"

#include <fstream>
#include <map>
#include <sstream>

#include "common/strings.h"

namespace transtore::assay {

sequencing_graph parse_sequencing_graph(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  std::string assay_name = "assay";
  sequencing_graph graph(assay_name);
  std::map<std::string, int> ids;
  bool renamed = false;

  auto fail = [&](const std::string& why) {
    throw invalid_input_error("sequencing graph parse error, line " +
                              std::to_string(line_number) + ": " + why);
  };

  while (std::getline(in, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    std::istringstream parts(line);
    std::string directive;
    parts >> directive;
    if (directive == "assay") {
      std::string name;
      parts >> name;
      if (name.empty()) fail("'assay' needs a name");
      if (renamed) fail("duplicate 'assay' directive");
      // Rebuild with the right name; must come before any ops.
      if (graph.operation_count() > 0)
        fail("'assay' directive must precede operations");
      graph = sequencing_graph(name);
      renamed = true;
    } else if (directive == "op") {
      std::string name;
      int duration = 0;
      parts >> name >> duration;
      if (name.empty()) fail("'op' needs a name and a duration");
      if (duration <= 0) fail("operation duration must be positive");
      if (ids.count(name) != 0) fail("duplicate operation name '" + name + "'");
      ids[name] = graph.add_operation(name, duration);
    } else if (directive == "dep") {
      std::string parent, child;
      parts >> parent >> child;
      const auto p = ids.find(parent);
      const auto c = ids.find(child);
      if (p == ids.end()) fail("unknown operation '" + parent + "'");
      if (c == ids.end()) fail("unknown operation '" + child + "'");
      try {
        graph.add_dependency(p->second, c->second);
      } catch (const invalid_input_error& e) {
        fail(e.what());
      }
    } else {
      fail("unknown directive '" + directive + "'");
    }
  }
  if (graph.operation_count() == 0)
    throw invalid_input_error("sequencing graph parse error: no operations");
  graph.validate();
  return graph;
}

std::string to_text(const sequencing_graph& graph) {
  std::ostringstream out;
  out << "assay " << graph.name() << "\n";
  for (int i = 0; i < graph.operation_count(); ++i)
    out << "op " << graph.at(i).name << " " << graph.at(i).duration << "\n";
  for (const auto& [parent, child] : graph.edges())
    out << "dep " << graph.at(parent).name << " " << graph.at(child).name
        << "\n";
  return out.str();
}

sequencing_graph load_sequencing_graph(const std::string& path) {
  std::ifstream in(path);
  if (!in.good())
    throw invalid_input_error("cannot open sequencing graph file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_sequencing_graph(buffer.str());
}

} // namespace transtore::assay
