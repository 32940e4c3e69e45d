/**
 * @file
 * DMA engine: models host<->device copies going straight to the system
 * directory, the traffic that activates the directory's DMA transitions
 * — which, as the paper notes, neither the GPU nor the CPU tester
 * generates (Section IV.C).
 */

#ifndef DRF_APPS_DMA_HH
#define DRF_APPS_DMA_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "mem/msg.hh"
#include "mem/network.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace drf
{

/** Configuration of the DMA engine. */
struct DmaConfig
{
    unsigned lineBytes = 64;
    unsigned maxOutstanding = 4;
};

/**
 * A simple line-granularity DMA engine attached to the crossbar.
 */
class DmaEngine : public SimObject, public MsgReceiver
{
  public:
    using DoneFunc = std::function<void()>;

    DmaEngine(std::string name, EventQueue &eq, const DmaConfig &cfg,
              Crossbar &xbar, int endpoint, int dir_ep);

    /**
     * Queue a read of @p lines cache lines starting at @p base;
     * @p on_done fires when the last response arrives.
     */
    void readRange(Addr base, unsigned lines, DoneFunc on_done);

    /**
     * Queue a write of @p lines cache lines starting at @p base, filled
     * with @p fill; @p on_done fires when the last ack arrives.
     */
    void writeRange(Addr base, unsigned lines, std::uint8_t fill,
                    DoneFunc on_done);

    void recvMsg(Packet &pkt) override;

    bool idle() const { return _inFlight == 0 && _queue.empty(); }
    StatGroup &stats() { return _stats; }

  private:
    struct Op
    {
        bool isWrite = false;
        Addr addr = 0;
        std::uint8_t fill = 0;
        DoneFunc onDone; ///< set on the last op of a range only
    };

    void pump();

    DmaConfig _cfg;
    Crossbar &_xbar;
    int _endpoint;
    int _dirEndpoint;

    std::deque<Op> _queue;
    unsigned _inFlight = 0;
    PacketId _nextId = 1;
    std::map<PacketId, DoneFunc> _completions;
    StatGroup _stats;
};

} // namespace drf

#endif // DRF_APPS_DMA_HH
