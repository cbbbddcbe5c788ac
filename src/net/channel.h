// SocketChannel: the subject wire protocol over one TCP connection.
//
// The frames, deadlines, buffering and failure vocabulary are exactly
// proc/wire.h's: SocketChannel is the shared frame-I/O core,
// DescriptorChannel, over one full-duplex descriptor it owns. ECONNRESET
// maps to Aborted there, so a connection dropping mid-frame classifies
// identically to a subject-host pipe closing: Aborted, "the peer died".

#ifndef AID_NET_CHANNEL_H_
#define AID_NET_CHANNEL_H_

#include <string_view>

#include "net/socket.h"
#include "proc/wire.h"

namespace aid {

class SocketChannel final : public DescriptorChannel {
 public:
  /// Takes ownership of the connected socket `fd` and makes it
  /// non-blocking.
  explicit SocketChannel(int fd)
      : DescriptorChannel(fd, fd, /*owns_fds=*/true) {}

  std::string_view transport() const override { return "socket"; }
};

}  // namespace aid

#endif  // AID_NET_CHANNEL_H_
