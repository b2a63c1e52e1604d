#include "bgp/message.h"

namespace bgpcc {

std::string to_string(MessageType type) {
  switch (type) {
    case MessageType::kOpen:
      return "OPEN";
    case MessageType::kUpdate:
      return "UPDATE";
    case MessageType::kNotification:
      return "NOTIFICATION";
    case MessageType::kKeepalive:
      return "KEEPALIVE";
  }
  return "?";
}

std::string UpdateMessage::summary() const {
  std::string out;
  if (!withdrawn.empty()) {
    out += "withdraw";
    for (const Prefix& p : withdrawn) {
      out += ' ';
      out += p.to_string();
    }
  }
  if (!announced.empty()) {
    if (!out.empty()) out += "; ";
    out += "announce";
    for (const Prefix& p : announced) {
      out += ' ';
      out += p.to_string();
    }
    if (attrs) {
      out += ' ';
      out += attrs->summary();
    }
  }
  if (out.empty()) out = "(empty update)";
  return out;
}

}  // namespace bgpcc
