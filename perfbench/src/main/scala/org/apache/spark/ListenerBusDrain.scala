package org.apache.spark

/** Waits until the listener bus has delivered every posted event, so the
  * benchmark's listener counts are complete when a query returns. The bus
  * is package-private, hence this file's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
