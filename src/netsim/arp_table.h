// Static ARP table (the paper reuses an open-source ARP module; our testbed
// populates the table out-of-band, which is equivalent to a completed ARP
// exchange).
#ifndef SRC_NETSIM_ARP_TABLE_H_
#define SRC_NETSIM_ARP_TABLE_H_

#include <map>

#include "src/proto/headers.h"

namespace strom {

class ArpTable {
 public:
  void Add(Ipv4Addr ip, const MacAddr& mac) { entries_[ip] = mac; }
  bool Lookup(Ipv4Addr ip, MacAddr* mac) const {
    auto it = entries_.find(ip);
    if (it == entries_.end()) {
      return false;
    }
    *mac = it->second;
    return true;
  }
  size_t size() const { return entries_.size(); }

 private:
  std::map<Ipv4Addr, MacAddr> entries_;
};

}  // namespace strom

#endif  // SRC_NETSIM_ARP_TABLE_H_
