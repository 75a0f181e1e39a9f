package org.apache.spark

/** Spark delivers listener events asynchronously. Job and task counts taken at
  * a span boundary are only complete once the bus has drained; the drain call
  * is package-private, hence this one-line bridge.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
